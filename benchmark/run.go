package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"mvolap/internal/core"
)

// spec defines one workload. Names are final: BENCHMARK.json, the
// pinned digests and every later comparison refer to them.
type spec struct {
	name string
	// departments sizes the warehouse: 2000 is tier M (144k facts), 500
	// is tier S (36k facts). Both have 6 structure versions, 7 modes.
	departments int
	// cache is the TQL result cache size in entries; 0 turns it off.
	cache int
	// opsPerSecond sets the length of the fixed op stream: a run of
	// --seconds s sends opsPerSecond*s ops, which took about s seconds
	// on two cores at the commit that defined the benchmark. The count
	// is fixed, not the duration, so the final state, the WAL bytes and
	// the heap are the same on every run and only elapsed time varies.
	opsPerSecond int
	// zipf picks statements Zipf(1.1) over pool256; otherwise uniform.
	zipf bool
	// mix is the share of each op kind, in percent.
	mix [numKinds]int
}

var specs = []spec{
	{name: "read_hot", departments: 2000, cache: 4096, opsPerSecond: 6000, zipf: true, mix: [numKinds]int{kindQuery: 100}},
	{name: "read_scan", departments: 2000, cache: 0, opsPerSecond: 75, mix: [numKinds]int{kindQuery: 100}},
	{name: "ingest", departments: 2000, cache: 4096, opsPerSecond: 80, mix: [numKinds]int{kindFacts: 90, kindRetract: 10}},
	{name: "evolve_mix", departments: 500, cache: 4096, opsPerSecond: 115, zipf: true,
		mix: [numKinds]int{kindQuery: 55, kindFacts: 25, kindRetract: 5, kindEvolve: 15}},
}

func specByName(name string) (spec, bool) {
	i := slices.IndexFunc(specs, func(s spec) bool { return s.name == name })
	if i < 0 {
		return spec{}, false
	}
	return specs[i], true
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// digests pin the inputs of a run.
type digests struct {
	Warehouse warehouseDigest `json:"warehouse"`
	Pool      string          `json:"pool"`
	Stream    string          `json:"stream"`
	Ops       int             `json:"ops"`
}

// report is everything one run of one workload found. Its last three
// fields are the result the contract asks for.
type report struct {
	Workload   string                        `json:"workload"`
	Seed       int64                         `json:"seed"`
	Ops        int                           `json:"ops"`
	Trace      bool                          `json:"trace"`
	Nproc      int                           `json:"nproc"`
	Gomaxprocs int                           `json:"gomaxprocs"`
	Digests    digests                       `json:"digests"`
	ElapsedS   float64                       `json:"elapsed_s"`
	Samples    map[string]int                `json:"samples"`
	Errors     map[string]int                `json:"errors"`
	Check      checkReport                   `json:"check"`
	Fidelity   map[string]string             `json:"trace_fidelity,omitempty"`
	Shares     map[string]map[string]float64 `json:"trace_shares,omitempty"`
	Correct    bool                          `json:"correct"`
	Attempted  int                           `json:"attempted"`
	Failed     int                           `json:"failed"`
	Metrics    metricSet                     `json:"metrics"`
}

type runOptions struct {
	seed int64
	ops  int
	// trace selects the per-layer run; otherwise the end-to-end run.
	trace bool
	// setups is how many fresh warehouses are built to take setup_s as
	// a median; the first one is the warehouse that is measured.
	setups int
	// scratch is a directory the run may fill and must leave empty.
	scratch string
	// pin, when set, is what the input digests must equal.
	pin *digests
}

// runWorkload builds a fresh warehouse, drives the workload's fixed op
// stream at it over loopback HTTP, checks the outputs, and reports the
// end-to-end metrics (or, traced, the per-layer ones).
func runWorkload(sp spec, o runOptions) (*report, error) {
	rep := &report{
		Workload: sp.name, Seed: o.seed, Trace: o.trace,
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		Samples: map[string]int{}, Errors: map[string]int{}, Metrics: metricSet{},
	}
	cfg := warehouseConfig(sp.departments)
	dir := filepath.Join(o.scratch, "data")
	defer os.RemoveAll(dir)

	var setupS []float64
	start := time.Now()
	n, err := startNode(cfg, dir, sp.cache)
	if err != nil {
		return nil, err
	}
	setupS = append(setupS, time.Since(start).Seconds())
	defer n.close()

	st, err := buildInputs(sp, o.seed, o.ops, n.seed.Schema)
	if err != nil {
		return nil, err
	}
	rep.Digests = st.digests
	if o.pin != nil && *o.pin != rep.Digests {
		return nil, fmt.Errorf("%s: inputs differ from expected.json: got %+v, pinned %+v", sp.name, rep.Digests, *o.pin)
	}

	c := newClient()
	defer c.CloseIdleConnections()
	for i := range st.warmup {
		if s := send(c, n.url, &st.warmup[i]); !s.ok() {
			return nil, fmt.Errorf("%s: warm-up %q: status %d", sp.name, st.warmup[i].stmt, s.status)
		}
	}

	// The measured phase. /metrics is scraped before and after it, never
	// during. A run that takes three times its nominal length is cut.
	var cnt counters
	if cnt.before, err = scrape(c, n.url); err != nil {
		return nil, err
	}
	rt := readRuntime()
	samples, elapsed := drive(c, n.url, st.ops, 3*time.Duration(o.ops)*time.Second/time.Duration(sp.opsPerSecond))
	rtDelta := readRuntime().since(rt)
	if cnt.after, err = scrape(c, n.url); err != nil {
		return nil, err
	}
	// Twice: what the first cycle finalizes, the second frees.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapLiveMB := float64(ms.HeapAlloc) / (1 << 20)
	diskBytes, snapshotBytes, err := dirBytes(n.dir)
	if err != nil {
		return nil, err
	}

	all, perKind := statsOf(st.ops, samples)
	for k := range numKinds {
		rep.Samples[kindNames[k]] = perKind[k].n
		rep.Errors[kindNames[k]] = perKind[k].failed
	}
	rep.ElapsedS = elapsed.Seconds()
	rep.Attempted, rep.Failed = all.n, all.failed

	facts := st.digests.Warehouse.Facts
	var lastAcked uint64
	for i, s := range samples {
		if !s.ok() {
			continue
		}
		switch st.ops[i].kind {
		case kindFacts:
			facts += factsPerOp
		case kindRetract:
			facts -= retractPerOp
		}
		lastAcked = max(lastAcked, s.env.WalSeq)
	}
	if rep.Check, err = outputCheck(n, c, facts, lastAcked, o.scratch); err != nil {
		return nil, err
	}
	rep.Correct = rep.Check.ok()

	if o.trace {
		lm := layerCounts(st, samples, perKind, cnt, rtDelta)
		lm.set("client.op_p99_ms", all.ms(0.99), "ms")
		lm.set("core.structure_versions", float64(rep.Check.Modes-1), "count")
		lm.set("store.disk_bytes_per_fact", float64(diskBytes)/float64(facts), "B/fact")
		lm.set("store.snapshot_bytes", float64(snapshotBytes), "B")
		lm.set("store.recover_ms", rep.Check.RecoverMs, "ms")
		lm.set("store.recover_replayed", float64(rep.Check.Replayed), "count")
		lm.set("store.recover_warm_modes", float64(rep.Check.WarmModes), "count")
		lm.set("check.probe_mismatches", float64(rep.Check.ProbeMismatches), "count")
		lm.set("check.facts_recovered", float64(rep.Check.FactsRecovered), "count")
		catchup, err := replicaCatchup(n)
		if err != nil {
			return nil, err
		}
		lm.set("store.replica_catchup_records_per_s", catchup, "1/s")
		n.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		tr, err := traceWorkload(sp, cfg, st, o.scratch)
		if err != nil {
			return nil, err
		}
		tr.layerTimes(lm, perKind[kindQuery].ms(0.5))
		rep.Fidelity, rep.Shares = tr.fidelity, tr.shares
		rep.Metrics = lm
		return rep, nil
	}

	n.close()
	for i := 1; i < o.setups; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		start := time.Now()
		extra, err := startNode(cfg, dir, sp.cache)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		extra.close()
	}
	m := rep.Metrics
	m.set("setup_s", mid(setupS), "s")
	m.set("ops_per_s", float64(all.n-all.failed)/elapsed.Seconds(), "ops/s")
	m.set("op_p50_ms", all.ms(0.50), "ms")
	m.set("op_p90_ms", all.ms(0.90), "ms")
	m.set("heap_live_mb", heapLiveMB, "MB")
	return rep, nil
}

// buildInputs generates a workload's op stream over its seed warehouse
// and digests both.
func buildInputs(sp spec, seed int64, ops int, sch *core.Schema) (stream, error) {
	st, err := buildStream(sp, seed, ops, sch)
	if err != nil {
		return stream{}, err
	}
	wd, err := digestWarehouse(sch)
	if err != nil {
		return stream{}, err
	}
	st.digests = digests{Warehouse: wd, Pool: digestPool(st.pool), Stream: st.digest(), Ops: len(st.ops)}
	return st, nil
}

// runtimeStats are the Go runtime's own counters around the measured
// phase; the clients share the process and its two cores with the
// server, so GC work shows in every workload's throughput.
type runtimeStats struct {
	totalAlloc, pauseNs uint64
	gcCPU, totalCPU     float64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeStats{ms.TotalAlloc, ms.PauseTotalNs, s[0].Value.Float64(), s[1].Value.Float64()}
}

func (a runtimeStats) since(b runtimeStats) runtimeStats {
	return runtimeStats{a.totalAlloc - b.totalAlloc, a.pauseNs - b.pauseNs, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// layerCounts fills in every per-layer metric that is a count or comes
// from the loopback run: /metrics deltas over the measured phase, the
// write envelopes, body lengths, per-kind client latencies and the
// runtime's counters.
func layerCounts(st stream, samples []sample, perKind [numKinds]kindStats, cnt counters, rt runtimeStats) metricSet {
	m := metricSet{}
	queries := float64(perKind[kindQuery].n)
	writes := float64(len(samples)) - queries

	var bodies []int
	var retained, evicted, invalidated, subtracted, retractModes float64
	for i, s := range samples {
		switch {
		case !s.ok():
		case st.ops[i].kind == kindQuery:
			bodies = append(bodies, s.bytes)
		default:
			retained += float64(len(s.env.RetainedModes))
			evicted += float64(len(s.env.EvictedModes))
			invalidated += float64(s.env.QueryCacheInvalidated)
			if st.ops[i].kind == kindRetract {
				subtracted += float64(s.env.ModesSubtracted)
				retractModes += float64(len(s.env.RetainedModes) + len(s.env.EvictedModes))
			}
		}
	}
	slices.Sort(bodies)
	m.set("server.resp_bytes_p50", float64(percentile(bodies, 0.5)), "B")
	m.set("server.resp_bytes_p99", float64(percentile(bodies, 0.99)), "B")

	// The latencies a client of one op kind sees. They are end-to-end
	// numbers, reported here because no kind occurs in every workload.
	m.set("client.query_p50_ms", perKind[kindQuery].ms(0.50), "ms")
	m.set("client.query_p90_ms", perKind[kindQuery].ms(0.90), "ms")
	m.set("client.query_p99_ms", perKind[kindQuery].ms(0.99), "ms")
	m.set("client.facts_p50_ms", perKind[kindFacts].ms(0.50), "ms")
	m.set("client.facts_p90_ms", perKind[kindFacts].ms(0.90), "ms")
	m.set("client.retract_p50_ms", perKind[kindRetract].ms(0.50), "ms")
	m.set("client.evolve_p50_ms", perKind[kindEvolve].ms(0.50), "ms")
	m.set("client.evolve_p90_ms", perKind[kindEvolve].ms(0.90), "ms")

	hits, misses := cnt.delta("mvolap_query_cache_hits_total"), cnt.delta("mvolap_query_cache_misses_total")
	m.set("tql.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("tql.cache_invalidated_per_write", ratio(invalidated, writes), "count")
	m.set("tql.cache_retained_per_write", ratio(cnt.delta("mvolap_query_cache_retained_total"), writes), "count")

	scanned, pruned := cnt.delta("mvolap_query_facts_scanned_total"), cnt.delta("mvolap_query_facts_pruned_total")
	m.set("core.facts_scanned_per_query", ratio(scanned, queries), "count")
	m.set("core.shards_pruned_ratio", ratio(pruned, scanned+pruned), "ratio")
	m.set("core.rows_per_query", ratio(cnt.delta("mvolap_query_rows_total"), queries), "count")
	modeHits, modeMisses := cnt.delta("mvolap_mode_cache_hits_total"), cnt.delta("mvolap_mode_cache_misses_total")
	m.set("core.materializations", modeMisses, "count")
	m.set("core.mode_cache_hit_ratio", ratio(modeHits, modeHits+modeMisses), "ratio")
	m.set("core.modes_retained_per_write", ratio(retained, writes), "count")
	m.set("core.modes_evicted_per_write", ratio(evicted, writes), "count")
	m.set("core.shards_privatized_per_write", ratio(cnt.delta("mvolap_mvft_shards_privatized_total"), writes), "count")
	m.set("core.modes_subtracted_ratio", ratio(subtracted, retractModes), "ratio")

	fsyncs := cnt.delta("mvolap_store_wal_fsyncs_total")
	m.set("store.wal_fsync_us_mean", ratio(cnt.delta("mvolap_store_wal_fsync_seconds_sum"), fsyncs)*1e6, "us")
	m.set("store.wal_fsyncs_per_write", ratio(fsyncs, writes), "count")
	factsWritten := float64(perKind[kindFacts].n-perKind[kindFacts].failed) * factsPerOp
	m.set("store.wal_bytes_per_fact", ratio(cnt.delta("mvolap_store_wal_bytes_total"), factsWritten), "B/fact")
	snapshots := cnt.delta("mvolap_store_snapshots_total")
	m.set("store.snapshots", snapshots, "count")
	m.set("store.snapshot_ms_mean", ratio(cnt.delta("mvolap_store_snapshot_seconds_sum"), snapshots)*1e3, "ms")

	m.set("runtime.alloc_kb_per_op", ratio(float64(rt.totalAlloc)/1024, float64(len(samples))), "KB")
	m.set("runtime.gc_pause_ms_total", float64(rt.pauseNs)/1e6, "ms")
	m.set("runtime.gc_cpu_share", ratio(rt.gcCPU, rt.totalCPU), "ratio")
	return m
}
