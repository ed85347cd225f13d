GO ?= go

# Build identity injected into the binaries. `go run` and package-path
# builds never stamp VCS info, so without this mvolap_build_info and
# -version say "(devel)/unknown"; with it, they name the commit built.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo '(devel)')
COMMIT ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
LDFLAGS = -ldflags "-X mvolap/internal/buildinfo.version=$(VERSION) -X mvolap/internal/buildinfo.commit=$(COMMIT)"

# Tier-1 verification: build + vet + full tests + race on the
# concurrency-bearing core package, plus the benchmark module and the
# serving binary's import graph.
.PHONY: verify
verify: build vet deps-check write-path-check read-path-check test race benchmark-check

# The reproduction tier and the load generator are outside the serving
# binary's import graph: they exist for cmd/paper-tables and the
# benchmarks and stay frozen. An import from the serving path would
# make them something every serving change has to keep working.
NOT_SERVED = rolap logical warehouse cube etl scd workload
.PHONY: deps-check
deps-check:
	@served=$$($(GO) list -deps ./cmd/mvolapd) || exit 1; \
	for pkg in $(NOT_SERVED); do \
		if echo "$$served" | grep -qx "mvolap/internal/$$pkg"; then \
			echo "deps-check: cmd/mvolapd imports mvolap/internal/$$pkg (go list -deps ./cmd/mvolapd)"; bad=1; \
		fi; \
	done; \
	test -z "$$bad"

# A write is one pipeline: store's commit routine is the only place
# outside internal/core that clones a schema, and the leader's handlers,
# crash recovery and the follower all go through it. A second
# Schema.Clone() call site in the root module's non-test code is a
# second write path starting. Schema.Clone is told from the other Clone
# methods by its receiver: a new kind of receiver fails the check until
# it is listed in NOT_A_SCHEMA. Nothing warms a clone: a mode has no
# warm state, and the deprecated Schema.WarmFrom is called nowhere in
# the root module's non-test code.
#
# What commit produces goes into service one way too: the server's
# publish is the one place that assigns the served schema (a field
# assignment to .schema, or a schema: key in a literal), so the WAL
# sequence it records beside it is always the one served. An assignment
# anywhere else in internal/server's non-test code is a second publish
# starting.
#
# The whole-table view .Facts().Facts() is O(facts), and a write reads
# what it changed off the clone (Schema.Delta) instead; EXPLAIN's
# lineage (internal/metadata) reads the instant's shards through
# Schema.SourcesOf.
#
# What a write changed is derived in one place, core's Schema.Delta:
# the footprint the evolution operators used to declare is gone, and
# the deprecated names left for the benchmark module (TouchSet,
# ApplyTouched, WithRetraction, BatchWindow) are named nowhere in the
# root module, tests included, outside their own definitions
# (DEPRECATED_DELTA and the func line of store.BatchWindow).
#
# No mode is materialized: the deprecated MultiVersion() handle builds
# nothing and stays only for the benchmark module, so a call to it
# anywhere in the root module's non-test code (its own definition
# aside) is a materialized mode coming back. The serving path presents
# every mode from the fact store through resolution tables as it scans;
# Schema.Present lists a whole mode for the reproduction tier, so a
# .Present( call in the query path, the store, the server or the TQL
# layer is a second read path starting.
#
# The fact table's columns have one binary codec, beside them in
# internal/core (MVFC02, core.EncodeFacts): a fact-codec magic ("MVFC…
# or "MVMT…) in non-test Go code anywhere else is a second on-disk
# representation of the facts starting.
WRITE_PATH = ./internal/store/mutation.go
NO_MATERIALIZATION = internal/core/query.go internal/store internal/server internal/tql
FACT_VIEW_FREE = internal/store internal/server internal/tql internal/metadata
NOT_A_SCHEMA = [cC]oords|mv
DEPRECATED_DELTA = ./internal/evolution/touchset.go
.PHONY: write-path-check
write-path-check:
	@calls=$$(grep -rnE '\.Clone\(\)' --include='*.go' --exclude='*_test.go' \
			--exclude-dir=benchmark --exclude-dir=core . \
		| grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
		| grep -vE '($(NOT_A_SCHEMA))\.Clone\(\)'); \
	stray=$$(echo "$$calls" | grep -v '^$(WRITE_PATH):'); \
	if [ -n "$$stray" ]; then \
		echo "write-path-check: Schema.Clone() called outside $(WRITE_PATH):"; echo "$$stray"; exit 1; \
	fi; \
	n=$$(echo "$$calls" | grep -cF '.Clone()'); \
	if [ "$$n" != 1 ]; then \
		echo "write-path-check: $(WRITE_PATH) calls .Clone() $$n times, want once"; bad=1; \
	fi; \
	warms=$$(grep -rnF '.WarmFrom(' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark . \
		| grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'); \
	if [ -n "$$warms" ]; then \
		echo "write-path-check: .WarmFrom( called in the root module's non-test code:"; echo "$$warms"; bad=1; \
	fi; \
	mvs=$$(grep -rnF 'MultiVersion()' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark . \
		| grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
		| grep -vE '^[^:]+:[0-9]+:func \(s \*Schema\) MultiVersion\(\) '); \
	if [ -n "$$mvs" ]; then \
		echo "write-path-check: MultiVersion() called in the root module's non-test code:"; echo "$$mvs"; bad=1; \
	fi; \
	presents=$$(grep -rnF '.Present(' --include='*.go' --exclude='*_test.go' $(NO_MATERIALIZATION) \
		| grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'); \
	if [ -n "$$presents" ]; then \
		echo "write-path-check: .Present( called in $(NO_MATERIALIZATION):"; echo "$$presents"; bad=1; \
	fi; \
	swaps=$$(awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /^[[:space:]]*\/\// { next } \
			/\.schema(,[[:space:]]*[[:alnum:]_.]+)*[[:space:]]*=[^=]|[^.[:alnum:]_]schema:/ && \
			fn !~ /^func \(s \*Server\) publish\(/ { print FILENAME ":" FNR ":" $$0 }' \
			$$(ls internal/server/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$swaps" ]; then \
		echo "write-path-check: the served schema is assigned outside (*Server).publish:"; echo "$$swaps"; bad=1; \
	fi; \
	magics=$$(grep -rnE '"MV(FC|MT)' --include='*.go' --exclude='*_test.go' . | grep -v '^\./internal/core/'); \
	if [ -n "$$magics" ]; then \
		echo "write-path-check: a fact-codec magic outside internal/core:"; echo "$$magics"; bad=1; \
	fi; \
	views=$$(grep -rnF '.Facts().Facts()' --include='*.go' --exclude='*_test.go' $(FACT_VIEW_FREE)); \
	if [ -n "$$views" ]; then \
		echo "write-path-check: a whole-table fact view in $(FACT_VIEW_FREE):"; echo "$$views"; bad=1; \
	fi; \
	shims=$$(grep -rnwE 'TouchSet|ApplyTouched|WithRetraction|BatchWindow' --include='*.go' --exclude-dir=benchmark . \
		| grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
		| grep -v '^$(DEPRECATED_DELTA):' \
		| grep -vE '^[^:]+:[0-9]+:func BatchWindow\('); \
	if [ -n "$$shims" ]; then \
		echo "write-path-check: a deprecated delta name used in the root module:"; echo "$$shims"; bad=1; \
	fi; \
	test -z "$$bad"

# A query runs on the goroutine that asked for it, and the engine starts
# no goroutine at all: a go statement anywhere in internal/core's
# non-test code is a fan-out starting — and the scan, materialization
# and warm-fold fan-outs it would bring back moved no benchmark metric.
#
# The serving path reads the schema's dimensions: a structure version
# is an instant of them, not a copy. Dimension.Restrict builds copies,
# so its one caller in internal/core's non-test code is the accessor
# the reproduction tier reads versions through
# (StructureVersion.Dimensions); a second call site is a second
# representation of structure starting.
#
# The scan reads member version ordinals straight out of the shard
# columns: a .members[ probe in scan.go or query.go is a per-tuple
# string-keyed map lookup coming back.
#
# A result is ordered by integers: the scan ranks its buckets and
# display names and sorts cells by those ranks. The function that fills
# the rows, (*scanner).rows, is the one place scan.go or query.go
# touches a row's .Groups; a read anywhere else is a string sort of rows
# coming back.
#
# A stored tuple with a sole ancestor per axis is classified inline from
# rollupTable.up; (*scanner).classify is the scan's one general path, so
# a .setOf( call anywhere else in scan.go is a second written-out
# classification starting.
#
# The scan folds Definition 12's ⊕ into typed columns, per cell and
# selected measure: a float64 sum, an int32 count of the non-NaN
# values, and a least and a greatest only when a selected measure is a
# Min or a Max. core.Accumulator, which updates all four whatever the
# kind, serves callers outside the scan; a use of it in scan.go is a
# second fold form starting.
#
# A TQL statement reaches the engine one way: runSelect, which probes
# the result cache, scans on a miss and puts what it scanned; a QUALITY
# ranking runs each of its modes through it. So internal/tql's non-test
# code calls .ExecuteContext( exactly once, and internal/quality and
# internal/server never: a second call site is a read path that
# bypasses the result cache.
SCAN_PATH = internal/core/scan.go internal/core/query.go
CACHE_BYPASS_FREE = internal/quality internal/server
.PHONY: read-path-check
read-path-check:
	@core=$$(ls internal/core/*.go | grep -v '_test\.go$$'); \
	stray=$$(awk '/^[[:space:]]*go[[:space:]]/ { print FILENAME ":" FNR ":" $$0 }' $$core); \
	if [ -n "$$stray" ]; then \
		echo "read-path-check: go statement in internal/core:"; echo "$$stray"; \
		echo "A new fan-out first needs a benchmark workload (BENCHMARK.json) that shows it pays."; bad=1; \
	fi; \
	copies=$$(awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /^[[:space:]]*\/\// { next } \
			/\.Restrict\(/ && fn !~ /^func \(v \*StructureVersion\) Dimensions\(/ { print FILENAME ":" FNR ":" $$0 }' $$core); \
	if [ -n "$$copies" ]; then \
		echo "read-path-check: Restrict( called in internal/core outside StructureVersion.Dimensions:"; echo "$$copies"; \
		echo "The serving path reads the schema's dimensions at a version's instant, never a copy."; bad=1; \
	fi; \
	probes=$$(grep -nE '\.members\[' $(SCAN_PATH) | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'); \
	if [ -n "$$probes" ]; then \
		echo "read-path-check: .members[ probe in the scan (internal/core/scan.go, query.go):"; echo "$$probes"; \
		echo "Tuples store member version ordinals; index rollup tables and dice verdicts by them."; bad=1; \
	fi; \
	groups=$$(awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /^[[:space:]]*\/\// { next } \
			/\.Groups([^[:alnum:]_]|$$)/ && fn !~ /^func \(sc \*scanner\) rows\(/ { print FILENAME ":" FNR ":" $$0 }' $(SCAN_PATH)); \
	if [ -n "$$groups" ]; then \
		echo "read-path-check: .Groups read in the scan (internal/core/scan.go, query.go) outside (*scanner).rows:"; echo "$$groups"; \
		echo "Cells are ordered by integer ranks (scanner.order); rows are written once, in that order."; bad=1; \
	fi; \
	sets=$$(awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /^[[:space:]]*\/\// { next } \
			/\.setOf\(/ && fn !~ /^func \(sc \*scanner\) classify\(/ { print FILENAME ":" FNR ":" $$0 }' internal/core/scan.go); \
	if [ -n "$$sets" ]; then \
		echo "read-path-check: .setOf( call in internal/core/scan.go outside (*scanner).classify:"; echo "$$sets"; \
		echo "The scan reads a sole ancestor inline (rollupTable.up); every other tuple goes through classify, its one general path."; bad=1; \
	fi; \
	accs=$$(grep -nF 'Accumulator' internal/core/scan.go | grep -vE '^[0-9]+:[[:space:]]*//'); \
	if [ -n "$$accs" ]; then \
		echo "read-path-check: internal/core/scan.go names Accumulator:"; echo "$$accs"; \
		echo "The scan folds into typed columns (sums, counts, mins, maxs), its one fold form."; bad=1; \
	fi; \
	execs=$$(grep -rnF '.ExecuteContext(' --include='*.go' --exclude='*_test.go' internal/tql | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'); \
	if [ "$$(echo "$$execs" | grep -cF '.ExecuteContext(')" != 1 ]; then \
		echo "read-path-check: internal/tql calls .ExecuteContext( other than once (in runSelect):"; echo "$$execs"; bad=1; \
	fi; \
	bypass=$$(grep -rnF '.ExecuteContext(' --include='*.go' --exclude='*_test.go' $(CACHE_BYPASS_FREE) | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'); \
	if [ -n "$$bypass" ]; then \
		echo "read-path-check: .ExecuteContext( called in $(CACHE_BYPASS_FREE):"; echo "$$bypass"; \
		echo "A statement reaches the engine through tql's runSelect, which the result cache fronts."; bad=1; \
	fi; \
	test -z "$$bad"

# benchmark/ is its own module (`replace mvolap => ../`), so the root
# `./...` patterns never see it: without this step a rename of any of
# the ~60 symbols it imports breaks the benchmark of record silently.
.PHONY: benchmark-check
benchmark-check:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

.PHONY: build
build:
	$(GO) build $(LDFLAGS) ./...

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: test
test:
	$(GO) test ./...

# Concurrent queries sharing one published schema (its lazily built
# rollup and resolution tables and pooled merge maps), the clones
# racing for a shared tail slot, the lock-free
# observability counters, the server's copy-on-write evolution and the
# store's WAL/flusher are all concurrent; keep them honest under the
# race detector. Crash recovery, replication and snapshot determinism have
# no targets of their own: their tests live in internal/store and
# internal/server, which this runs whole — a `-run` regex beside it
# would only re-run a subset, and silently drop any test whose name it
# does not match.
.PHONY: race
race:
	$(GO) test -race ./internal/core/... ./internal/evolution/... ./internal/obs/... ./internal/server/... ./internal/store/... ./internal/tql/...

# Every fuzz target for FUZZTIME each (the native Go fuzzer accepts one
# -fuzz pattern per invocation). CI runs this in its own job; crashers
# land in the package testdata/fuzz corpora, which CI uploads on
# failure so a red run carries its reproducer.
FUZZTIME ?= 30s
.PHONY: fuzz
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseInstant$$' -fuzztime $(FUZZTIME) ./internal/temporal/
	$(GO) test -run '^$$' -fuzz '^FuzzParseInterval$$' -fuzztime $(FUZZTIME) ./internal/temporal/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/tql/
	$(GO) test -run '^$$' -fuzz '^FuzzReadWrite$$' -fuzztime $(FUZZTIME) ./internal/schemaio/
	$(GO) test -run '^$$' -fuzz '^FuzzFactsCodec$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzKeyIndexLineage$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSelect$$' -fuzztime $(FUZZTIME) ./internal/rolap/
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotContainer$$' -fuzztime $(FUZZTIME) ./internal/store/

# Advisory per-package coverage summary; CI appends it to the job
# summary. Informational by design — coverage informs, it does not
# gate.
.PHONY: cover
cover:
	$(GO) test -cover ./... | tee coverage.txt

.PHONY: bench
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# bench-json and bench-smoke write their go test -json stream to
# bench-smoke.json, which is gitignored: a run never dirties the tree.
# CI uploads bench-smoke's as an artifact.
.PHONY: bench-json
bench-json:
	$(GO) test -json -bench=. -benchmem -run='^$$' ./... > bench-smoke.json

# bench-smoke runs the incremental-maintenance, sharded-swap/scan,
# structure-version, snapshot-restart and replication benchmarks once —
# a CI guard that a fact batch leaves every mode answering with nothing
# to warm, that shard-sharing clone-swaps and the columnar scan still execute, that
# evolve_mix's end state still infers its 178 structure versions, that
# a restart from a snapshot recovers every fact and restores no mode
# (the benches b.Fatal otherwise), and that a follower bootstraps and
# catches up to a leader's WAL.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -json -bench='IncrementalIngest|ShardedSwap|ShardedScan|StructureVersionInference' -benchtime=1x -run='^$$' . > bench-smoke.json
	$(GO) test -json -bench=SnapshotRestart -benchtime=1x -run='^$$' ./internal/store >> bench-smoke.json
	$(GO) test -json -bench='FollowerCatchup|ReplicaQueryThroughput' -benchtime=1x -run='^$$' ./internal/server >> bench-smoke.json
