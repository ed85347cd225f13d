GO ?= go

# Machine-readable benchmark record for this change series; CI uploads
# it as an artifact so performance trajectories accumulate across
# commits. CI reads the current name via `make -s print-bench`, so
# bumping it here is the single edit a new record series needs.
BENCH ?= BENCH_10.json

# Load-bench record: the committed mvolap-bench saturation sweep the
# delta target diffs fresh runs against.
BENCH_LOAD ?= BENCH_9.json

# print-bench / print-bench-load let CI resolve the artifact paths from
# this file instead of hard-coding record names in the workflow (which
# is how a stale BENCH_7.json pin once shipped).
.PHONY: print-bench print-bench-load
print-bench:
	@echo $(BENCH)
print-bench-load:
	@echo $(BENCH_LOAD)

# Build identity injected into the binaries. `go run` and package-path
# builds never stamp VCS info, so without this every bench report says
# "(devel)/unknown"; with it, a committed BENCH_*.json names the commit
# that was measured.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo '(devel)')
COMMIT ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
LDFLAGS = -ldflags "-X mvolap/internal/buildinfo.version=$(VERSION) -X mvolap/internal/buildinfo.commit=$(COMMIT)"

# Tier-1 verification: build + vet + full tests + race on the
# concurrency-bearing core package, plus the benchmark module and the
# serving binary's import graph.
.PHONY: verify
verify: build vet deps-check write-path-check test race benchmark-check

# The reproduction tier and the load generators are outside the serving
# binary's import graph: they exist for cmd/paper-tables and the
# benchmarks and stay frozen. An import from the serving path would
# make them something every serving change has to keep working.
NOT_SERVED = rolap logical warehouse cube molap etl scd timedim bench workload
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
# outside internal/core that clones a schema or warms a clone, and the
# leader's handlers, crash recovery and the follower all go through it.
# A second Schema.Clone() or .WarmFrom( call site in the root module's
# non-test code is a second write path starting. Schema.Clone is told
# from the other Clone methods by its receiver: a new kind of receiver
# fails the check until it is listed in NOT_A_SCHEMA.
WRITE_PATH = ./internal/store/mutation.go
NOT_A_SCHEMA = [cC]oords|mv
.PHONY: write-path-check
write-path-check:
	@calls=$$(grep -rnE '\.WarmFrom\(|\.Clone\(\)' --include='*.go' --exclude='*_test.go' \
			--exclude-dir=benchmark --exclude-dir=core . \
		| grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
		| grep -vE '($(NOT_A_SCHEMA))\.Clone\(\)'); \
	stray=$$(echo "$$calls" | grep -v '^$(WRITE_PATH):'); \
	if [ -n "$$stray" ]; then \
		echo "write-path-check: Schema.Clone() or .WarmFrom( called outside $(WRITE_PATH):"; echo "$$stray"; exit 1; \
	fi; \
	for call in 'WarmFrom(' 'Clone()'; do \
		n=$$(echo "$$calls" | grep -cF ".$$call"); \
		if [ "$$n" != 1 ]; then \
			echo "write-path-check: $(WRITE_PATH) calls .$$call $$n times, want once"; bad=1; \
		fi; \
	done; \
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

# The MVFT materialization pipeline, its singleflight cache, the
# incremental-maintenance property suite, the lock-free observability
# counters, the server's copy-on-write evolution and the store's
# WAL/flusher are all concurrent; keep them honest under the race
# detector. Crash recovery, replication and snapshot determinism have
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
	$(GO) test -run '^$$' -fuzz '^FuzzMappedTableCodec$$' -fuzztime $(FUZZTIME) ./internal/schemaio/
	$(GO) test -run '^$$' -fuzz '^FuzzFactsCodec$$' -fuzztime $(FUZZTIME) ./internal/schemaio/
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

.PHONY: bench-json
bench-json:
	$(GO) test -json -bench=. -benchmem -run='^$$' ./... > $(BENCH)

# bench-smoke runs the incremental-maintenance, sharded-swap/scan,
# warm-restart and replication benchmarks once — a CI guard that the
# warm-delta path delta-applies to every mode, that shard-sharing
# clone-swaps and the columnar scan still execute, that a warm restart
# serves every snapshotted mode with zero materializations (the
# benches b.Fatal otherwise), and that a follower bootstraps and
# catches up to a leader's WAL.
.PHONY: bench-smoke
bench-smoke:
	$(GO) test -json -bench='IncrementalIngest|ShardedSwap|ShardedScan' -benchtime=1x -run='^$$' . > $(BENCH)
	$(GO) test -json -bench=WarmRestart -benchtime=1x -run='^$$' ./internal/store >> $(BENCH)
	$(GO) test -json -bench='FollowerCatchup|ReplicaQueryThroughput' -benchtime=1x -run='^$$' ./internal/server >> $(BENCH)

# loadtest is the mvolap-bench smoke: an in-process leader + 1
# follower under ~5s of mixed query/facts/evolve load with a recorded
# trace, then a serial replay of the capture (the trace self-verifies
# its CRC framing and op digest on read), plus the record/replay
# determinism and golden-trace tests. LOADJSON is uploaded by CI.
LOADJSON ?= loadtest.json
.PHONY: loadtest
loadtest: build
	$(GO) run $(LDFLAGS) ./cmd/mvolap-bench -inprocess 1 -duration 4s -warmup 1s -concurrency 8 \
		-record loadtest.mvtr -json $(LOADJSON)
	$(GO) run $(LDFLAGS) ./cmd/mvolap-bench -inprocess 0 -replay loadtest.mvtr -concurrency 1
	$(GO) test -run 'TestRecordReplayDeterminism|TestSeedTrace' -count=1 ./internal/bench/
	@rm -f loadtest.mvtr

# bench-load regenerates $(BENCH_LOAD): a saturation sweep against an
# in-process leader + 2 followers, queries fanned across the
# followers, replication lag sampled from their /readyz. The ldflags
# stamp the measured commit into the report's build identity.
.PHONY: bench-load
bench-load: build
	$(GO) run $(LDFLAGS) ./cmd/mvolap-bench -inprocess 2 -sweep-concurrency 1,8,64 \
		-duration 4s -warmup 1s -json $(BENCH_LOAD)

# bench-delta runs a fresh abbreviated sweep and diffs it against the
# committed $(BENCH_LOAD) record with `mvolap-bench -compare`: per-op
# throughput/p50/p99 deltas as a markdown table (bench-delta.md, which
# CI appends to the job summary). Advisory by design — deltas inform,
# they do not gate — so only a build failure fails the target and
# noisy CI runners never block a merge.
.PHONY: bench-delta
bench-delta: build
	-$(GO) run $(LDFLAGS) ./cmd/mvolap-bench -inprocess 2 -sweep-concurrency 1,8 \
		-duration 2s -warmup 500ms -json bench-fresh.json
	-@if [ -f $(BENCH_LOAD) ] && [ -f bench-fresh.json ]; then \
		$(GO) run ./cmd/mvolap-bench -compare $(BENCH_LOAD),bench-fresh.json | tee bench-delta.md; \
	else \
		echo "bench-delta: missing $(BENCH_LOAD) or bench-fresh.json; nothing to compare" | tee bench-delta.md; \
	fi
	-@rm -f bench-fresh.json
