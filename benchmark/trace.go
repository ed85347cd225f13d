package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/quality"
	"mvolap/internal/schemaio"
	"mvolap/internal/server"
	"mvolap/internal/store"
	"mvolap/internal/tql"
	"mvolap/internal/workload"
)

// The traced run gives the per-layer times. The program is not
// instrumented: the benchmark replays the op stream serially through a
// pipeline it assembles from the layers' exported functions, in the
// order handleQuery, handleFacts, handleFactsRetract and handleEvolve
// call them, and records a span around each call. Next to it the same
// ops go through the real handler (in memory, untraced); where the
// assembled pipeline and the handler disagree by more than
// fidelityBound the layer times do not describe the program and the
// report says so.

const (
	// replayBudget bounds the replay; it stops after the first op that
	// ends past it.
	replayBudget  = 8 * time.Second
	fidelityBound = 0.15
)

// span is one timed call into a layer. Spans of one op share its index;
// Parent is the index of the enclosing span, -1 for a root or a probe
// (a stage replayed on its own, outside the op's root span, to take its
// time alone).
type span struct {
	name       string
	op, parent int
	start, end time.Duration
}

type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) begin(name string, op, parent int) int {
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: time.Since(r.t0)})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].end = time.Since(r.t0) }

func (r *recorder) took(id int) time.Duration { return r.spans[id].end - r.spans[id].start }

// pipeline is the benchmark's own assembly of the serving path: the
// state a server holds (schema, applier, store, result cache) and one
// method per op kind that does what the handler does.
type pipeline struct {
	sch     *core.Schema
	applier *evolution.Applier
	st      *store.Store
	cache   *tql.ResultCache // nil when the workload runs without one
	rec     *recorder
}

func (p *pipeline) query(i int, stmt string) error {
	ctx := context.Background()
	w := quality.DefaultWeights()
	r := p.rec

	parse := r.begin("tql.parse", i, -1)
	parsed, err := tql.Parse(stmt)
	r.end(parse)
	if err != nil {
		return err
	}
	plan := r.begin("tql.plan", i, -1)
	_, err = parsed.Plan(p.sch)
	r.end(plan)
	if err != nil {
		return err
	}

	// The root span is tql.RunCachedContext, which is all of handleQuery
	// that can be called from outside; its one child says how it ended.
	mv := p.sch.MultiVersion()
	builds := mv.Materializations()
	root := r.begin("query", i, -1)
	run := r.begin("tql.cache_hit", i, root)
	out, err := tql.RunCachedContext(ctx, p.sch, stmt, w, p.cache)
	r.end(run)
	r.end(root)
	if err != nil {
		return err
	}
	// An output nobody rendered yet was computed by this call.
	miss := false
	out.RenderOnce(func() []byte { miss = true; return []byte{} })
	if !miss {
		return nil
	}
	// What the miss took beyond its small stages is the scan, or with a
	// mode to build first, the materialization and the scan. Scanning
	// again on its own would find the rollup caches the first scan left.
	qual := r.begin("quality.of", i, -1)
	quality.Of(out.Result, w)
	r.end(qual)
	rest := span{name: "core.execute", op: i, parent: -1,
		end: max(r.took(run)-r.took(parse)-r.took(plan)-r.took(qual), 0)}
	r.spans[run].name = "tql.run_miss"
	if mv.Materializations() > builds {
		r.spans[run].name = "tql.run_miss_build"
		rest.name = "core.materialize"
	}
	r.spans = append(r.spans, rest)
	return nil
}

// swap publishes an accepted clone: WarmFrom, pointer swap, result
// cache invalidation, the automatic snapshot when one is due, and the
// answer's encoding.
func (p *pipeline) swap(i, root int, clone *core.Schema, applier *evolution.Applier, delta core.Delta, warmSpan string, due bool, resp map[string]any) error {
	r := p.rec
	id := r.begin(warmSpan, i, root)
	res := clone.WarmFrom(context.Background(), p.sch, delta)
	r.end(id)
	resp["retainedModes"], resp["evictedModes"], resp["deltaApplies"] = res.Retained, res.Evicted, res.DeltaApplied
	prev := p.sch.SwapID()
	p.sch, p.applier = clone, applier
	id = r.begin("tql.cache_invalidate", i, root)
	resp["queryCacheInvalidated"] = p.cache.Invalidate(prev, clone.SwapID(), delta)
	r.end(id)
	if due {
		id = r.begin("store.snapshot", i, root)
		_, err := p.st.Snapshot(p.sch, p.applier.Log(), "auto")
		r.end(id)
		if err != nil {
			return err
		}
	}
	id = r.begin("server.encode", i, root)
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	err := enc.Encode(resp)
	r.end(id)
	return err
}

func (p *pipeline) facts(i int, body []byte) error {
	r := p.rec
	root := r.begin("facts", i, -1)
	defer func() { r.end(root) }()
	id := r.begin("store.parse_batch", i, root)
	batch, err := store.ParseFactBatch(body)
	r.end(id)
	if err != nil {
		return err
	}
	id = r.begin("core.clone", i, root)
	clone := p.sch.Clone()
	r.end(id)
	oldLen := clone.Facts().Len()
	id = r.begin("core.apply_facts", i, root)
	for _, fr := range batch {
		if err := store.ApplyFact(clone, fr); err != nil {
			return err
		}
	}
	r.end(id)
	id = r.begin("store.wal_append", i, root)
	seq, due, err := p.st.AppendFactBatch(batch)
	r.end(id)
	if err != nil {
		return err
	}
	var delta core.Delta
	if clone.Facts().Len() == oldLen+len(batch) {
		delta.NewFacts = clone.Facts().Facts()[oldLen:]
	} else {
		delta.FactsReplaced = true
	}
	delta.FactsWindow, delta.FactsWindowKnown = store.BatchWindow(batch)
	resp := map[string]any{"appended": len(batch), "facts": clone.Facts().Len(), "walSeq": seq}
	return p.swap(i, root, clone, p.applier.Rebind(clone), delta, "core.warm_from", due, resp)
}

func (p *pipeline) retract(i int, body []byte) error {
	r := p.rec
	root := r.begin("retract", i, -1)
	defer func() { r.end(root) }()
	id := r.begin("store.parse_batch", i, root)
	batch, err := store.ParseRetractBatch(body)
	r.end(id)
	if err != nil {
		return err
	}
	id = r.begin("core.clone", i, root)
	clone := p.sch.Clone()
	r.end(id)
	id = r.begin("core.apply_retract", i, root)
	retracted := make([]*core.Fact, 0, len(batch))
	for _, rr := range batch {
		old, err := store.ApplyRetract(clone, rr)
		if err != nil {
			return err
		}
		retracted = append(retracted, old)
	}
	r.end(id)
	id = r.begin("store.wal_append", i, root)
	seq, due, err := p.st.AppendRetractBatch(batch)
	r.end(id)
	if err != nil {
		return err
	}
	delta := evolution.TouchSet{}.WithRetraction(retracted)
	resp := map[string]any{"retracted": len(batch), "facts": clone.Facts().Len(), "walSeq": seq}
	return p.swap(i, root, clone, p.applier.Rebind(clone), delta, "core.warm_from_retract", due, resp)
}

func (p *pipeline) evolve(i int, body []byte) error {
	r := p.rec
	root := r.begin("evolve", i, -1)
	defer func() { r.end(root) }()
	id := r.begin("evolution.parse", i, root)
	ops, err := evolution.ParseScript(bytes.NewReader(body), len(p.sch.Measures()))
	r.end(id)
	if err != nil {
		return err
	}
	id = r.begin("core.clone", i, root)
	clone := p.sch.Clone()
	r.end(id)
	applier := p.applier.Rebind(clone)
	id = r.begin("evolution.apply", i, root)
	touched, err := applier.ApplyTouched(ops...)
	r.end(id)
	if err != nil {
		return err
	}
	id = r.begin("core.structure_versions", i, root)
	modes := len(clone.Modes())
	r.end(id)
	id = r.begin("store.wal_append", i, root)
	seq, due, err := p.st.AppendEvolve(body)
	r.end(id)
	if err != nil {
		return err
	}
	resp := map[string]any{"applied": len(ops), "modes": modes, "walSeq": seq}
	return p.swap(i, root, clone, applier, touched.Delta(), "core.warm_from", due, resp)
}

// traced is what the replay found: every span's duration by name, and
// per op kind the assembled pipeline's time next to the real one's.
type traced struct {
	us        map[string][]float64 // span name -> durations in microseconds
	handler   [numKinds][]float64  // the real counterpart, per op
	assembled [numKinds][]float64  // the benchmark's pipeline, per op
	selfUS    []float64            // query ops: handler minus tql.RunCachedContext
	rootUS    [numKinds]float64    // total time of the kind's root spans
	childUS   [numKinds]map[string]float64
	gaps      [numKinds]float64 // |median assembled / median real - 1|; 0 when the kind is absent
	// fidelity is "ok", "failed: ..." or "absent" per kind; shares is, per
	// kind, each child span's part of the root spans' total time, with
	// "self" for what no child covers.
	fidelity map[string]string
	shares   map[string]map[string]float64
}

// traceWorkload replays the workload's stream (warm-up included,
// uncounted) through the assembled pipeline and through a reference
// server, each over its own fresh warehouse and store.
func traceWorkload(sp spec, cfg workload.Config, st stream, scratch string) (*traced, error) {
	open := func(name string) (*store.Store, *core.Schema, *evolution.Applier, error) {
		w, err := workload.Generate(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		return store.Open(filepath.Join(scratch, name), w.Schema, storeOptions())
	}
	pst, psch, pap, err := open("trace-pipeline")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(scratch, "trace-pipeline"))
	defer pst.Close()
	rst, rsch, rap, err := open("trace-reference")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(scratch, "trace-reference"))
	defer rst.Close()

	rec := &recorder{}
	p := &pipeline{sch: psch, applier: pap, st: pst, rec: rec}
	if sp.cache > 0 {
		p.cache = tql.NewResultCache(sp.cache)
	}
	refSrv := server.New(nil, server.WithLogger(discard), server.WithEvolution(),
		server.WithQueryTimeout(30*time.Second), server.WithQueryCache(sp.cache))
	refSrv.Install(rsch, rap, rst)
	ref := refSrv.Handler()
	serve := func(o *op) (time.Duration, error) {
		var req *http.Request
		if o.kind == kindQuery {
			req = httptest.NewRequest(http.MethodGet, queryPath(o.stmt), nil)
		} else {
			req = httptest.NewRequest(http.MethodPost, kindPaths[o.kind], bytes.NewReader(o.body))
		}
		rw := httptest.NewRecorder()
		start := time.Now()
		ref.ServeHTTP(rw, req)
		d := time.Since(start)
		if rw.Code != http.StatusOK {
			return d, fmt.Errorf("trace: reference handler answered %d to %s: %s", rw.Code, kindNames[o.kind], rw.Body)
		}
		return d, nil
	}

	t := &traced{us: map[string][]float64{}}
	ops := append(append([]op{}, st.warmup...), st.ops...)
	rec.t0 = time.Now()
	for i := range ops {
		o := &ops[i]
		first := len(rec.spans)
		switch o.kind {
		case kindQuery:
			err = p.query(i, o.stmt)
		case kindFacts:
			err = p.facts(i, o.body)
		case kindRetract:
			err = p.retract(i, o.body)
		case kindEvolve:
			err = p.evolve(i, o.body)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: pipeline, op %d (%s): %w", i, kindNames[o.kind], err)
		}
		real, err := serve(o)
		if err != nil {
			return nil, err
		}
		if i >= len(st.warmup) {
			t.account(o.kind, rec.spans[first:], real)
		}
		if time.Since(rec.t0) > replayBudget {
			break
		}
	}

	// What a snapshot's two encoders cost on the final state.
	start := time.Now()
	if err := schemaio.Write(io.Discard, p.sch); err != nil {
		return nil, err
	}
	t.us["schemaio.write"] = []float64{us(time.Since(start))}
	for _, exp := range p.sch.ExportWarmModes() {
		start := time.Now()
		if _, err := schemaio.EncodeMappedTable(exp); err != nil {
			return nil, err
		}
		t.us["schemaio.encode_mapped"] = append(t.us["schemaio.encode_mapped"], us(time.Since(start)))
	}
	t.judge()
	return t, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// account files one op's spans. The assembled pipeline is the op's root
// span and the real one is the handler. For a query the root is
// tql.RunCachedContext alone: the handler's own part (routing,
// middleware, rendering, writing) cannot be called from outside and is
// taken by subtraction. On a cache hit that part is most of the
// handler, so the query kind is judged on its misses.
func (t *traced) account(kind opKind, spans []span, real time.Duration) {
	d := map[string]float64{}
	if t.childUS[kind] == nil {
		t.childUS[kind] = map[string]float64{}
	}
	for _, s := range spans {
		v := us(s.end - s.start)
		d[s.name] += v
		t.us[s.name] = append(t.us[s.name], v)
		if s.parent >= 0 {
			t.childUS[kind][s.name] += v
		}
	}
	t.rootUS[kind] += d[kindNames[kind]]
	if kind != kindQuery {
		t.handler[kind] = append(t.handler[kind], us(real))
		t.assembled[kind] = append(t.assembled[kind], d[kindNames[kind]])
		return
	}
	t.us["server.handler_query"] = append(t.us["server.handler_query"], us(real))
	t.selfUS = append(t.selfUS, us(real)-d["query"])
	if _, hit := d["tql.cache_hit"]; !hit {
		t.handler[kind] = append(t.handler[kind], us(real))
		t.assembled[kind] = append(t.assembled[kind], d["query"])
	}
}

// judge compares medians per op kind and works out each span's share
// of its kind's pipeline.
func (t *traced) judge() {
	t.fidelity = map[string]string{}
	t.shares = map[string]map[string]float64{}
	for k := range numKinds {
		if len(t.handler[k]) == 0 {
			t.fidelity[kindNames[k]] = "absent"
			continue
		}
		t.gaps[k] = math.Abs(mid(t.assembled[k])/mid(t.handler[k]) - 1)
		t.fidelity[kindNames[k]] = "ok"
		if t.gaps[k] > fidelityBound {
			t.fidelity[kindNames[k]] = "failed: layer times unusable"
		}
	}
	for k := range numKinds {
		if t.rootUS[k] == 0 {
			continue
		}
		sh := map[string]float64{"self": 1}
		for name, v := range t.childUS[k] {
			sh[name] = v / t.rootUS[k]
			sh["self"] -= sh[name]
		}
		t.shares[kindNames[k]] = sh
	}
}

func (t *traced) med(name string) float64 { return mid(t.us[name]) }

// layerTimes reports the medians, in the units BENCHMARK.json declares.
func (t *traced) layerTimes(m metricSet, loopbackQueryP50ms float64) {
	handlerQ := t.med("server.handler_query")
	net := 0.0
	if len(t.us["server.handler_query"]) > 0 {
		net = loopbackQueryP50ms*1e3 - handlerQ
	}
	m.set("server.net_us", net, "us")
	m.set("server.handle_self_us", mid(t.selfUS), "us")
	for _, name := range []string{
		"tql.parse", "tql.plan", "tql.cache_hit", "tql.cache_invalidate",
		"core.execute", "core.clone", "core.apply_facts", "core.warm_from", "core.warm_from_retract",
		"core.structure_versions", "quality.of", "evolution.parse", "evolution.apply", "store.wal_append",
	} {
		m.set(name+"_us", t.med(name), "us")
	}
	m.set("core.materialize_ms", t.med("core.materialize")/1e3, "ms")
	m.set("schemaio.write_ms", t.med("schemaio.write")/1e3, "ms")
	m.set("schemaio.encode_mapped_ms", t.med("schemaio.encode_mapped")/1e3, "ms")
	for k := range numKinds {
		m.set("trace.fidelity_gap_"+kindNames[k], t.gaps[k], "ratio")
	}
}

// replicaCatchup starts a follower of the node once the workload is
// over and times it from the end of its bootstrap (the leader's latest
// snapshot) to the leader's last record, in records per second. It is
// 0 when the snapshot already holds every record.
func replicaCatchup(n *node) (float64, error) {
	snap, last := n.st.SnapshotSeq(), n.st.LastSeq()
	if snap == 0 || snap == last {
		return 0, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep := store.NewReplica(n.url, store.ReplicaOptions{Logger: discard})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	if err := rep.WaitForSeq(ctx, snap); err != nil {
		return 0, fmt.Errorf("replica bootstrap: %w", err)
	}
	start := time.Now()
	if err := rep.WaitForSeq(ctx, last); err != nil {
		return 0, fmt.Errorf("replica catch-up: %w", err)
	}
	return float64(last-snap) / time.Since(start).Seconds(), nil
}
