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
verify: build vet deps-check write-path-check read-path-check exports-check test race benchmark-check

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
# internal/core (MVFC04, core.WriteFacts): a fact-codec magic ("MVFC…
# or "MVMT…) in non-test Go code anywhere else is a second on-disk
# representation of the facts starting.
#
# A snapshot is written once, front to back: each section's length
# trails its payload, so internal/store's non-test code names
# WriteStructure( and WriteFacts( once each, in encodeSnapshot. A second
# call is a payload encoded twice — a counting pass, a sizer mirroring
# the writer — coming back. The container has one format, read and
# written in internal/store/snapshot.go: a container magic ("MVOSNP…)
# in non-test Go code anywhere else is a second reader or writer
# starting.
WRITE_PATH = ./internal/store/mutation.go
SNAPSHOT_CODEC = ./internal/store/snapshot.go
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
	for w in 'WriteStructure(' 'WriteFacts('; do \
		names=$$(grep -rnF "$$w" --include='*.go' --exclude='*_test.go' internal/store \
			| grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'); \
		n=$$(echo "$$names" | grep -oF "$$w" | wc -l); \
		if [ "$$n" -gt 1 ]; then \
			echo "write-path-check: internal/store's non-test code names $$w $$n times, want once:"; echo "$$names"; bad=1; \
		fi; \
	done; \
	snaps=$$(grep -rnF '"MVOSNP' --include='*.go' --exclude='*_test.go' . | grep -v '^$(SNAPSHOT_CODEC):'); \
	if [ -n "$$snaps" ]; then \
		echo "write-path-check: a snapshot container magic outside $(SNAPSHOT_CODEC):"; echo "$$snaps"; bad=1; \
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
# display names and sorts cells by those ranks. The function that packs
# the cells, (*scanner).result, is the one place scan.go or query.go
# may touch a row's .Groups; a read anywhere else is a string sort of
# rows coming back.
#
# A result is its cells (core.Result's columns), and the serving path
# reads them where they lie: the body writer, the quality factor and
# the text rendering walk the columns. Result.Rows() builds row structs
# for the reproduction tier, the examples and tests, so a .Rows read or
# call, or a core.Row, in the non-test code of internal/server,
# internal/tql or internal/quality is a per-cell allocation coming back.
#
# A stored tuple with a sole ancestor per axis is classified inline from
# rollupTable.up; (*scanner).classify is the scan's one general path, so
# a .setOf( call anywhere else in scan.go is a second written-out
# classification starting.
#
# The scan folds Definition 12's ⊕ into typed columns, per cell and
# selected measure: a float64 sum, an int32 count of the non-NaN
# values, and a least and a greatest only when a selected measure is a
# Min or a Max. That is Definition 12's one fold: core.Accumulator,
# which updates all four whatever the kind, is the test oracles'
# reference fold, so a non-test file of internal/core that names it
# outside its own declarations in measure.go is a second fold starting.
#
# A dice is a membership column by member ordinal, built by one walk
# down from the named members per chain entry met (Dimension.under);
# a call of HasAncestorNamedAt in scan.go or query.go is a verdict per
# member and instant coming back.
#
# A TQL statement reaches the engine one way: runSelect, which probes
# the result cache, scans on a miss and puts what it scanned; a QUALITY
# ranking runs each of its modes through it. So internal/tql's non-test
# code calls .ExecuteContext( exactly once, and internal/quality and
# internal/server never: a second call site is a read path that
# bypasses the result cache.
SCAN_PATH = internal/core/scan.go internal/core/query.go
ROWLESS = internal/server internal/tql internal/quality
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
		echo "Tuples store member version ordinals; index rollup tables and dice columns by them."; bad=1; \
	fi; \
	groups=$$(awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /^[[:space:]]*\/\// { next } \
			/\.Groups([^[:alnum:]_]|$$)/ && fn !~ /^func \(sc \*scanner\) result\(/ { print FILENAME ":" FNR ":" $$0 }' $(SCAN_PATH)); \
	if [ -n "$$groups" ]; then \
		echo "read-path-check: .Groups read in the scan (internal/core/scan.go, query.go) outside (*scanner).result:"; echo "$$groups"; \
		echo "Cells are ordered by integer ranks (scanner.order) and packed once, in that order."; bad=1; \
	fi; \
	rows=$$(grep -rnE '\.Rows([^[:alnum:]_]|$$)|core\.Row([^[:alnum:]_]|$$)' --include='*.go' --exclude='*_test.go' $(ROWLESS) \
		| grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'); \
	if [ -n "$$rows" ]; then \
		echo "read-path-check: rows built or named in $(ROWLESS):"; echo "$$rows"; \
		echo "The serving path reads a result's cells through its accessors (Len, TimeKey, Group, Values, CFs)."; bad=1; \
	fi; \
	sets=$$(awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /^[[:space:]]*\/\// { next } \
			/\.setOf\(/ && fn !~ /^func \(sc \*scanner\) classify\(/ { print FILENAME ":" FNR ":" $$0 }' internal/core/scan.go); \
	if [ -n "$$sets" ]; then \
		echo "read-path-check: .setOf( call in internal/core/scan.go outside (*scanner).classify:"; echo "$$sets"; \
		echo "The scan reads a sole ancestor inline (rollupTable.up); every other tuple goes through classify, its one general path."; bad=1; \
	fi; \
	accs=$$(awk 'FNR == 1 { decl = "" } /^(func|type) / { decl = $$0 } /^[[:space:]]*\/\// { next } \
			/Accumulator/ && !(FILENAME == "internal/core/measure.go" && decl ~ /^(func (\(a \*Accumulator\) |NewAccumulator\()|type Accumulator )/) \
			{ print FILENAME ":" FNR ":" $$0 }' $$core); \
	if [ -n "$$accs" ]; then \
		echo "read-path-check: internal/core names Accumulator outside its declarations:"; echo "$$accs"; \
		echo "Definition 12 has one fold, the scan's typed columns (sums, counts, mins, maxs)."; bad=1; \
	fi; \
	walks=$$(grep -nF 'HasAncestorNamedAt' $(SCAN_PATH) | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'); \
	if [ -n "$$walks" ]; then \
		echo "read-path-check: HasAncestorNamedAt called in the scan (internal/core/scan.go, query.go):"; echo "$$walks"; \
		echo "A dice reads a membership column, one walk down per chain entry (Dimension.under)."; bad=1; \
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

# The served packages export only what code outside the tests calls:
# an exported function or method of a package under internal/ or cmd/
# with no caller in any non-test .go file of the repository — the
# façade, the frozen packages, the commands, the examples and the
# benchmark module (so anything benchmark/ imports) included — is dead
# surface, or a test fixture posing as API. The frozen public surface,
# EXPORTS_FROZEN and the façade, is not listed; a name is a caller
# wherever it stands outside a comment and its own declaration. The
# exports that stay with tests alone, and why:
#
#   AggregateMember        Def. 12 for one member on the façade's Schema
#                          (ExampleSchema_AggregateMember).
#   NewAccumulator         the test oracles' reference fold of Def. 12.
#   NewQuantitativeAlgebra Def. 6's quantitative ⊗cf, the algebra the
#                          scan's property tests run beside Example 5's.
#   SetRows                the test oracles build a Result row by row.
#   MustInsertFact         the fact fixture of several packages' tests.
#   Signature, Has         Def. 9 on the case study: its versions'
#                          signatures (casestudy.TestNewFullSignatures)
#                          and member versions (query_paper_test.go).
#   History                §5.2's textual history of a member
#                          (evolution.TestApplierLogAndHistory).
#   Decrease               Table 11's Decrease (TestDecreaseOperation).
#   VersionInfoOf          §5.2's member metadata (metadata_test.go).
#   EncodeFacts            the facts payload in one buffer, which the
#                          codec's round-trip tests and FuzzFactsCodec
#                          read; a snapshot streams it (WriteFacts).
#   Unwrap                 errors.Is and errors.As call it, never by name.
EXPORTS_FROZEN = $(NOT_SERVED) casestudy
EXPORTS_TEST_ONLY = AggregateMember NewAccumulator NewQuantitativeAlgebra SetRows MustInsertFact \
	Signature Has History Decrease VersionInfoOf EncodeFacts Unwrap
.PHONY: exports-check
exports-check:
	@corpus=$$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' ! -path './_*' ! -path '*/testdata/*'); \
	dead=$$(for dir in internal/* cmd/*; do \
		case " $(EXPORTS_FROZEN) " in *" $${dir##*/} "*) continue;; esac; \
		for f in $$dir/*.go; do \
			case $$f in *_test.go) continue;; esac; \
			awk '/^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*[[(]/ { s = $$0; sub(/^func (\([^)]*\) )?/, "", s); sub(/[[(].*/, "", s); print FILENAME ":" FNR ":" s }' $$f; \
		done; \
	done | while IFS=: read -r file line name; do \
		case " $(EXPORTS_TEST_ONLY) " in *" $$name "*) continue;; esac; \
		grep -hE "(^|[^A-Za-z0-9_])$$name([^A-Za-z0-9_]|$$)" $$corpus | grep -vE '^[[:space:]]*//' \
			| grep -qvE "^func (\([^)]*\) )?$$name[[(]" || echo "$$file:$$line: $$name"; \
	done); \
	if [ -n "$$dead" ]; then \
		echo "exports-check: exported with no caller outside the tests:"; echo "$$dead"; \
		echo "Delete it with the tests that only exercise it, or list it in EXPORTS_TEST_ONLY with the claim its test checks."; exit 1; \
	fi

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
# (the benches b.Fatal otherwise), that a follower bootstraps and
# catches up to a leader's WAL, and that the /query body writer still
# encodes tier M's rollup and drill.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -json -bench='IncrementalIngest|ShardedSwap|ShardedScan|StructureVersionInference' -benchtime=1x -run='^$$' . > bench-smoke.json
	$(GO) test -json -bench=SnapshotRestart -benchtime=1x -run='^$$' ./internal/store >> bench-smoke.json
	$(GO) test -json -bench='FollowerCatchup|ReplicaQueryThroughput|EncodeQueryResponse' -benchtime=1x -run='^$$' ./internal/server >> bench-smoke.json
