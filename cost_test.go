package mvolap_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/quality"
	"mvolap/internal/server"
	"mvolap/internal/store"
	"mvolap/internal/temporal"
	"mvolap/internal/tql"
	"mvolap/internal/workload"
)

// The cost suite states the engine's cost model as assertions on what
// is exact from run to run and binary to binary: allocation counts,
// bytes, and work counters — never wall clock. Each row measures one
// operation at two sizes, N and 4N, of what it must not depend on, and
// bounds it at the larger size by the value measured when the row was
// written plus a stated margin (the bounds and their history are in
// CHANGES.md; they are only ever tightened). An operation that must
// scale with something bounds its cost per unit of it instead.

// costLeaves is the department count of the suite's ingest warehouse:
// ingestSchema's shape (one dimension, one measure) at 36 and 144
// months a leaf, the fact counts of the benchmark's tiers S and M.
const costLeaves = 1000

// costSizes are N and 4N in months a leaf.
var costSizes = [2]int{36, 144}

// costWarehouse returns the ingest warehouse at months a leaf.
func costWarehouse(t *testing.T, months int) *core.Schema {
	t.Helper()
	s := ingestSchema(t, costLeaves, 0)
	ingestFacts(t, s, costLeaves, months)
	return s
}

// costTier returns the benchmark's tier S (i 0, 36k facts) or M (i 1,
// 144k facts) as generated: one evolving dimension of 500 or 2 000
// departments, two measures, facts loaded year by year.
func costTier(t *testing.T, i int) *core.Schema {
	t.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 1, Divisions: 8, Departments: [2]int{500, 2000}[i], Years: 6,
		EvolutionsPerYear: 20, FactsPerYear: 12, Measures: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Schema
}

// costCoords are the coordinates of the warehouse's leaves, built once
// so that a row counts what the engine allocates and not its input.
var costCoords = func() []core.Coords {
	out := make([]core.Coords, costLeaves)
	for i := range out {
		out[i] = core.Coords{core.MVID("leaf" + strconv.Itoa(i))}
	}
	return out
}()

// costWrite clones s and inserts write w's batch of fresh facts, past
// every month the warehouse holds: write w of a lineage of batch-fact
// writes.
func costWrite(t *testing.T, s *core.Schema, months, batch, w int) *core.Schema {
	t.Helper()
	c := s.Clone()
	for i := w * batch; i < (w+1)*batch; i++ {
		at := temporal.Year(2003) + temporal.Instant(months+i/costLeaves)
		if err := c.InsertFact(costCoords[i%costLeaves], at, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// allocs reports the bytes and objects fn allocates.
func allocs(fn func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// median returns the median of xs.
func median(xs []uint64) uint64 {
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// atMost fails the row when got passes bound.
func atMost(t *testing.T, what string, got, bound float64) {
	t.Helper()
	if got > bound {
		t.Errorf("%s = %.4g, bound %.4g", what, got, bound)
	}
}

// TestCostFactStoreBytes: a fact costs its columns and one key-index
// entry, whatever the size of the store, and the ordinal stats cost
// their member versions. Two warehouses at N and 4N: the ingest
// warehouse (one measure) and the benchmark's tiers S and M as
// generated (two measures, 36k and 144k facts). The bytes are
// FactTable.Bytes, whose three parts the first row checks once against
// the live heap the facts took.
func TestCostFactStoreBytes(t *testing.T) {
	liveHeap := func() float64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	type row struct {
		name  string
		build func(n int) *core.Schema
		// perFact bounds the bytes a fact costs at 4N.
		perFact float64
	}
	rows := []row{
		{"ingest", func(i int) *core.Schema { return costWarehouse(t, costSizes[i]) }, 16.5},
		{"benchmark", func(i int) *core.Schema { return costTier(t, i) }, 18.5},
	}
	for _, r := range rows {
		for i := range costSizes {
			s := r.build(i)
			ft := s.Facts()
			columns, index, stats := ft.Bytes()
			n := float64(ft.Len())
			per := float64(columns+index+stats) / n
			t.Logf("%s, %d facts: %.1f B a fact (columns %.1f, index %.1f, stats %.1f)", r.name, ft.Len(), per, float64(columns)/n, float64(index)/n, float64(stats)/n)
			atMost(t, r.name+" index bytes per live fact", float64(index)/n, 10)
			if i == 1 {
				atMost(t, r.name+" bytes per fact at 4N", per, r.perFact)
			}
		}
	}

	// Bytes against the live heap: the facts of the ingest warehouse at
	// N, inserted into a schema that holds its dimension already.
	s := ingestSchema(t, costLeaves, 0)
	before := liveHeap()
	ingestFacts(t, s, costLeaves, costSizes[0])
	grown := liveHeap() - before
	columns, index, stats := s.Facts().Bytes()
	total := float64(columns + index + stats)
	d := math.Abs(grown-total) / grown
	t.Logf("live heap %.0f B, Bytes %.0f B (columns %d, index %d, stats %d), %.1f%% off", grown, total, columns, index, stats, 100*d)
	if d > 0.05 {
		t.Errorf("FactTable.Bytes = %.0f B, %.1f%% off the %.0f B of live heap the facts took", total, 100*d, grown)
	}
	runtime.KeepAlive(s)
}

// TestCostSnapshotFactBytes: the snapshot's facts section costs a fact
// its ordinals, its instant and its values, whatever the size of the
// store: on the ingest warehouse (one measure) and the benchmark's
// tiers S and M (two), loaded member by member, a fact's instant is
// almost always a month from the one before, one byte, and a whole
// amount below 64 in magnitude one byte, below 8 192 two.
func TestCostSnapshotFactBytes(t *testing.T) {
	rows := []struct {
		name  string
		build func(i int) *core.Schema
		bound float64
	}{
		{"ingest", func(i int) *core.Schema { return costWarehouse(t, costSizes[i]) }, 6},
		{"benchmark", func(i int) *core.Schema { return costTier(t, i) }, 9},
	}
	for _, r := range rows {
		for i := range costSizes {
			s := r.build(i)
			per := float64(len(core.EncodeFacts(s))) / float64(s.Facts().Len())
			t.Logf("%s, %d facts: %.2f snapshot bytes a fact", r.name, s.Facts().Len(), per)
			atMost(t, r.name+" snapshot bytes per fact", per, r.bound)
		}
	}
}

// TestCostClone: Schema.Clone copies O(dimensions) plus the key index's
// bounded top, never the facts. Measured on a lineage 64 writes past
// the cold load, so the clone copies a layered index's top.
func TestCostClone(t *testing.T) {
	var bytes, objects [2]float64
	for i, months := range costSizes {
		s := costWarehouse(t, months)
		for w := 0; w < 64; w++ {
			s = costWrite(t, s, months, 64, w)
		}
		const runs = 32
		b, o := allocs(func() {
			for r := 0; r < runs; r++ {
				_ = s.Clone()
			}
		})
		bytes[i], objects[i] = float64(b)/runs, float64(o)/runs
		t.Logf("%d facts: Schema.Clone allocates %.0f B in %.1f objects", s.Facts().Len(), bytes[i], objects[i])
	}
	atMost(t, "clone bytes at 4N", bytes[1], 5400)
	atMost(t, "clone objects at 4N", objects[1], 10)
	atMost(t, "clone bytes at 4N over N", bytes[1]/bytes[0], 1.05)
}

// TestCostReclassify: an in-place RECLASSIFY through evolution.Applier
// truncates and adds the member's own relationships, whatever the other
// relationships of its dimension: it neither walks nor reindexes them.
// The benchmark's tiers S and M as generated (500 and 2 000
// departments); each of eight departments valid past the history moves
// to another division at its end, through an applier of its own, so
// that the log's growth is the same in every call; the median.
func TestCostReclassify(t *testing.T) {
	var objects [2]float64
	for i := range costSizes {
		s := costTier(t, i)
		d := s.Dimension(workload.OrgDim)
		at := temporal.Year(workload.StartYear + 6)
		leaves := d.LeavesAt(at)[:8]
		os := make([]uint64, len(leaves))
		for k, mv := range leaves {
			from, to := d.ParentsAt(mv.ID, at.Prev())[0].ID, core.MVID("div-0")
			if from == to {
				to = "div-1"
			}
			ops := evolution.ReclassifyMember(workload.OrgDim, mv.ID, at, []core.MVID{from}, []core.MVID{to})
			a := evolution.NewApplier(s)
			_, os[k] = allocs(func() {
				if err := a.Apply(ops...); err != nil {
					t.Fatal(err)
				}
			})
		}
		objects[i] = float64(median(os))
		t.Logf("%d relationships: a RECLASSIFY allocates %.0f objects (median)", len(d.Relationships()), objects[i])
	}
	atMost(t, "RECLASSIFY objects at 4N", objects[1], 20)
	atMost(t, "RECLASSIFY objects at 4N over N", objects[1]/objects[0], 1.05)
}

// TestCostFactBatch: a 64-fact write — clone and insert — costs its
// batch. The median over 64 writes of one lineage, so that the one
// write in 64 that opens a tail shard, and the index merges the merge
// row bounds, do not decide it.
func TestCostFactBatch(t *testing.T) {
	var bytes, objects [2]float64
	for i, months := range costSizes {
		s := costWarehouse(t, months)
		bs, os := make([]uint64, 64), make([]uint64, 64)
		for w := range bs {
			bs[w], os[w] = allocs(func() { s = costWrite(t, s, months, 64, w) })
		}
		bytes[i], objects[i] = float64(median(bs)), float64(median(os))
		t.Logf("%d facts: a 64-fact write allocates %.0f B in %.0f objects (median)", s.Facts().Len(), bytes[i], objects[i])
	}
	atMost(t, "64-fact write bytes at 4N", bytes[1], 13000)
	atMost(t, "64-fact write objects at 4N", objects[1], 19)
	atMost(t, "64-fact write bytes at 4N over N", bytes[1]/bytes[0], 1.05)
}

// TestCostRetract: an 8-fact retraction — clone, then eight facts in
// eight distinct shards — allocates per fact and per shard it writes a
// live bit in, not per stored fact: no index entry is written or
// rebuilt, and no shard's columns are copied, only its header and live
// bitmap.
func TestCostRetract(t *testing.T) {
	var bytes, objects [2]float64
	for i, months := range costSizes {
		s := costWarehouse(t, months)
		var targets []core.Fact
		k := 0
		s.Facts().All(func(f *core.Fact) bool {
			if k%core.MappedShardSize == 17 {
				targets = append(targets, core.Fact{Coords: f.Coords.Clone(), Time: f.Time})
			}
			k++
			return len(targets) < 8
		})
		b, o := allocs(func() {
			c := s.Clone()
			for _, f := range targets {
				if _, err := c.RetractFact(f.Coords, f.Time); err != nil {
					t.Fatal(err)
				}
			}
		})
		bytes[i], objects[i] = float64(b), float64(o)
		t.Logf("%d facts: an 8-fact retract allocates %.0f B in %.0f objects", s.Facts().Len(), bytes[i], objects[i])
	}
	atMost(t, "8-fact retract objects at 4N", objects[1], 120)
	atMost(t, "8-fact retract objects at 4N over N", objects[1]/objects[0], 1.05)
	atMost(t, "8-fact retract bytes at 4N", bytes[1], 24_000)
	atMost(t, "8-fact retract bytes at 4N over N", bytes[1]/bytes[0], 1.05)
}

// TestCostCorrect: a correction — clone, then one replacement of an
// existing fact — copies the one shard it writes into, at its width. On
// the benchmark's tiers S and M as generated (two measures, whole
// amounts), a whole replacement copies a narrow shard: int32 ordinals,
// 16-bit instant offsets and int16 values. A fractional one copies the
// shard straight into a float64 value column, never narrow first.
func TestCostCorrect(t *testing.T) {
	for _, c := range []struct {
		name   string
		delta  float64
		bytes  float64 // bound at 4N
		object float64
	}{
		{"whole", 1, 44_000, 18},
		{"fractional", 0.5, 92_008, 18},
	} {
		var bytes, objects [2]float64
		for i := range costSizes {
			s := costTier(t, i)
			var target core.Fact
			k := 0
			s.Facts().All(func(f *core.Fact) bool {
				target = core.Fact{Coords: f.Coords.Clone(), Time: f.Time, Values: append([]float64(nil), f.Values...)}
				k++
				return k <= 17
			})
			for m := range target.Values {
				target.Values[m] += c.delta
			}
			bs, os := make([]uint64, 5), make([]uint64, 5)
			for r := range bs {
				bs[r], os[r] = allocs(func() {
					if err := s.Clone().InsertFact(target.Coords, target.Time, target.Values...); err != nil {
						t.Fatal(err)
					}
				})
			}
			bytes[i], objects[i] = float64(median(bs)), float64(median(os))
			t.Logf("%d facts: a %s correction allocates %.0f B in %.0f objects (median)", s.Facts().Len(), c.name, bytes[i], objects[i])
		}
		atMost(t, c.name+" correction bytes at 4N", bytes[1], c.bytes)
		atMost(t, c.name+" correction objects at 4N", objects[1], c.object)
		atMost(t, c.name+" correction bytes at 4N over N", bytes[1]/bytes[0], 1.05)
	}
}

// TestCostKeyIndexMerges: along a lineage of 2 000 writes of 64 facts,
// the key index's seals, merges and flattens rewrite at most
// c·log₂(n/256) entries per fact written, n the table's size at the
// end — geometric layers, not a rewrite of the table per write.
func TestCostKeyIndexMerges(t *testing.T) {
	const writes, batch, c = 2000, 64, 1.1
	for _, months := range costSizes {
		s := costWarehouse(t, months)
		merged := 0
		for w := 0; w < writes; w++ {
			s = costWrite(t, s, months, batch, w)
			_, m := s.Facts().KeyIndexWork()
			merged += m
		}
		n := s.Facts().Len()
		per := float64(merged) / (writes * batch)
		t.Logf("%d facts after %d writes: %.2f entries merged per fact written, log2(n/256) = %.2f", n, writes, per, math.Log2(float64(n)/256))
		atMost(t, "merged entries per written fact", per, c*math.Log2(float64(n)/256))
	}
}

// TestCostCommitFacts: a 64-fact write through the write path —
// store.Commit on a nil store: clone, apply, the span, Schema.Delta —
// costs its batch, as TestCostFactBatch's bare insert does. The median
// over 64 writes of one lineage; the batches are parsed beforehand.
func TestCostCommitFacts(t *testing.T) {
	var bytes, objects [2]float64
	for i, months := range costSizes {
		s := costWarehouse(t, months)
		ap := evolution.NewApplier(s)
		muts := make([]*store.Mutation, 64)
		for w := range muts {
			batch := make([]store.FactRecord, 64)
			for k := range batch {
				j := w*64 + k
				at := temporal.Year(2003) + temporal.Instant(months+j/costLeaves)
				batch[k] = store.FactRecord{
					Coords: []string{string(costCoords[j%costLeaves][0])}, Time: at.String(), Values: []float64{float64(j)},
				}
			}
			body, err := json.Marshal(batch)
			if err != nil {
				t.Fatal(err)
			}
			if muts[w], err = store.ParseMutation(store.RecordFacts, body, 1); err != nil {
				t.Fatal(err)
			}
		}
		bs, os := make([]uint64, 64), make([]uint64, 64)
		for w, m := range muts {
			bs[w], os[w] = allocs(func() {
				c, err := (*store.Store)(nil).Commit(context.Background(), s, ap, m)
				if err != nil {
					t.Fatal(err)
				}
				s, ap = c.Schema, c.Applier
			})
		}
		bytes[i], objects[i] = float64(median(bs)), float64(median(os))
		t.Logf("%d facts: a 64-fact Commit allocates %.0f B in %.0f objects (median)", s.Facts().Len(), bytes[i], objects[i])
	}
	atMost(t, "64-fact Commit bytes at 4N", bytes[1], 12700)
	atMost(t, "64-fact Commit objects at 4N", objects[1], 23)
	atMost(t, "64-fact Commit bytes at 4N over N", bytes[1]/bytes[0], 1.05)
}

// TestCostCacheHit: a result-cache hit — lex, parse, plan, the plan's
// key and the probe — costs its statement, whatever the facts behind
// the cached answer. The statement is one of the benchmark's rollup
// shapes.
func TestCostCacheHit(t *testing.T) {
	const stmt = "SELECT Amount BY Org.Division, TIME.QUARTER WHERE TIME BETWEEN 2003 AND 2005 MODE tcm"
	var bytes, objects [2]float64
	for i, months := range costSizes {
		s := costWarehouse(t, months)
		cache := tql.NewResultCache(16)
		w := quality.DefaultWeights()
		cached, err := tql.RunCachedContext(context.Background(), s, stmt, w, cache)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 64
		b, o := allocs(func() {
			for r := 0; r < runs; r++ {
				if out, _ := tql.RunCachedContext(context.Background(), s, stmt, w, cache); out != cached {
					t.Fatal("the statement missed the cache")
				}
			}
		})
		bytes[i], objects[i] = float64(b)/runs, float64(o)/runs
		t.Logf("%d facts: a cache hit allocates %.0f B in %.1f objects", s.Facts().Len(), bytes[i], objects[i])
	}
	atMost(t, "cache hit bytes at 4N", bytes[1], 1000)
	atMost(t, "cache hit objects at 4N", objects[1], 9)
	atMost(t, "cache hit bytes at 4N over N", bytes[1]/bytes[0], 1.05)
}

// TestCostCachedDrill: a cached drill keeps alive what its answer is —
// the result's cell columns and the body a hit writes — and no rows
// beside them. A server with a result cache answers the drill once over
// HTTP, at N and 4N; what the live heap then holds more than before the
// request, after two collections each, is at most 1.2 times the body's
// length. The server answered a rollup first, so what it builds once
// for any query is in both readings.
func TestCostCachedDrill(t *testing.T) {
	const (
		warm  = "SELECT Amount BY Org.Division, TIME.YEAR MODE tcm"
		drill = "SELECT Amount BY Org.Department, TIME.QUARTER MODE tcm"
	)
	liveHeap := func() float64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	for _, months := range costSizes {
		s := costWarehouse(t, months)
		h := server.New(s, server.WithQueryCache(16)).Handler()
		get := func(stmt string) int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/query?q="+url.QueryEscape(stmt), nil))
			if rec.Code != 200 {
				t.Fatalf("%s: status %d: %s", stmt, rec.Code, rec.Body)
			}
			return rec.Body.Len()
		}
		get(warm)
		// Build the drill level's rollup table, which the schema keeps.
		if _, err := s.Execute(costDrillQuery); err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		body := get(drill)
		kept := liveHeap() - before
		if body2 := get(drill); body2 != body {
			t.Fatalf("the cached drill answered %d bytes, then %d", body, body2)
		}
		t.Logf("%d facts: a cached drill keeps %.0f B alive for a %d B body (%.3f×)", s.Facts().Len(), kept, body, kept/float64(body))
		atMost(t, "cached drill bytes over body bytes", kept/float64(body), 1.2)
	}
}

// TestCostExplain: a version-mode EXPLAIN — lex, parse, the lineage of
// one cell and its text — costs its lineage, whatever the facts beside
// it: the walk reads the instant's shards through the scan's presenter
// and copies no fact it does not report. The cell is a department's in
// June of the last year, in the newest structure version, on the
// benchmark's tiers S and M.
func TestCostExplain(t *testing.T) {
	var bytes, objects [2]float64
	for i := range costSizes {
		s := costTier(t, i)
		modes := s.Modes()
		at := temporal.YM(workload.StartYear+5, 6)
		var cell core.MVID
		s.Facts().All(func(f *core.Fact) bool {
			cell = f.Coords[0]
			return f.Time != at
		})
		stmt := "EXPLAIN " + string(cell) + " AT " + at.String() + " MODE " + modes[len(modes)-1].String()
		out, err := tql.Run(s, stmt)
		if err != nil || !strings.HasPrefix(out.Lineage, "from ("+string(cell)+")") {
			t.Fatalf("%s = %+v, %v", stmt, out, err)
		}
		const runs = 16
		b, o := allocs(func() {
			for r := 0; r < runs; r++ {
				if _, err := tql.Run(s, stmt); err != nil {
					t.Fatal(err)
				}
			}
		})
		bytes[i], objects[i] = float64(b)/runs, float64(o)/runs
		t.Logf("%d facts: %s allocates %.0f B in %.1f objects", s.Facts().Len(), stmt, bytes[i], objects[i])
	}
	atMost(t, "EXPLAIN bytes at 4N", bytes[1], 2000)
	atMost(t, "EXPLAIN objects at 4N", objects[1], 48)
	atMost(t, "EXPLAIN bytes at 4N over N", bytes[1]/bytes[0], 1.05)
	atMost(t, "EXPLAIN objects at 4N over N", objects[1]/objects[0], 1.05)
}

// TestCostAggregateMember: Definition 12's aggregation of one member at
// one instant presents that instant's tuples alone, so it costs the
// member's leaves and not the facts; a presented tuple's membership is
// one read by its member version ordinal. The member is the ingest
// warehouse's top, over its 1 000 leaves, in the newest structure
// version, at the first month of facts. Each call follows two
// collections, which empty the merge-map pool, so that the row reads
// the merge map a call fills and not one an earlier call left; the
// median of 8 calls.
func TestCostAggregateMember(t *testing.T) {
	var bytes, objects [2]float64
	for i, months := range costSizes {
		s := costWarehouse(t, months)
		modes := s.Modes()
		mode := modes[len(modes)-1]
		at := temporal.Year(2003)
		vals, _, err := s.AggregateMember("top", at, mode)
		if err != nil || vals[0] != float64(costLeaves*(costLeaves-1)/2) {
			t.Fatalf("AggregateMember(top, %s, %s) = %v, %v", at, mode, vals, err)
		}
		bs, os := make([]uint64, 8), make([]uint64, 8)
		for r := range bs {
			runtime.GC()
			runtime.GC()
			bs[r], os[r] = allocs(func() {
				if _, _, err := s.AggregateMember("top", at, mode); err != nil {
					t.Fatal(err)
				}
			})
		}
		bytes[i], objects[i] = float64(median(bs)), float64(median(os))
		t.Logf("%d facts: AggregateMember(top, %s, %s) allocates %.0f B in %.0f objects (median)", s.Facts().Len(), at, mode, bytes[i], objects[i])
	}
	atMost(t, "AggregateMember bytes at 4N", bytes[1], 210000)
	atMost(t, "AggregateMember objects at 4N", objects[1], 140)
	atMost(t, "AggregateMember bytes at 4N over N", bytes[1]/bytes[0], 1.05)
	atMost(t, "AggregateMember objects at 4N over N", objects[1]/objects[0], 1.05)
}

// costRollupQuery and costDrillQuery are the benchmark's two query
// shapes on the ingest warehouse: its one division by year, and its
// departments by quarter.
var (
	costRollupQuery = core.Query{GroupBy: []core.GroupBy{{Dim: "Org", Level: "Division"}}, Grain: core.GrainYear, Mode: core.TCM()}
	costDrillQuery  = core.Query{GroupBy: []core.GroupBy{{Dim: "Org", Level: "Department"}}, Grain: core.GrainQuarter, Mode: core.TCM()}
)

// TestCostRollup: a rollup query allocates for its instants, buckets,
// groups and cells, never for the tuples it scans. N and 4N are the
// ingest warehouse's 144 months on 250 and on all 1 000 of its leaves
// (36k and 144k facts): one dimension, one set of instants, one
// answer, four times the tuples. The median of 8 runs.
func TestCostRollup(t *testing.T) {
	var bytes, objects [2]float64
	for i, leaves := range []int{costLeaves / 4, costLeaves} {
		s := ingestSchema(t, costLeaves, 0)
		ingestFacts(t, s, leaves, costSizes[1])
		res, err := s.Execute(costRollupQuery) // builds the rollup tables
		if err != nil || res.Len() != costSizes[1]/12 {
			t.Fatalf("rollup = %v, %v; want one row a year", res, err)
		}
		bs, os := make([]uint64, 8), make([]uint64, 8)
		for r := range bs {
			bs[r], os[r] = allocs(func() {
				if _, err := s.Execute(costRollupQuery); err != nil {
					t.Fatal(err)
				}
			})
		}
		bytes[i], objects[i] = float64(median(bs)), float64(median(os))
		t.Logf("%d facts: the rollup allocates %.0f B in %.0f objects (median)", s.Facts().Len(), bytes[i], objects[i])
	}
	atMost(t, "rollup bytes at 4N", bytes[1], 21500)
	atMost(t, "rollup objects at 4N", objects[1], 116)
	atMost(t, "rollup bytes at 4N over N", bytes[1]/bytes[0], 1.05)
	atMost(t, "rollup objects at 4N over N", objects[1]/objects[0], 1.05)
}

// TestCostFilteredRollup: a dice costs its structures, not its tuples.
// `BY Org.Division, TIME.YEAR WHERE Org = div-0` in tcm, on the
// benchmark's tiers S and M (36k and 144k facts, one evolving
// dimension): the dice's membership is one column per chain entry of
// the dimension met, built by one walk down from div-0, so the filtered
// rollup allocates what the unfiltered one does and a column per entry,
// whatever the facts. While each instant built its own verdicts, one
// member at a time, it allocated 36 553 and 144 853 objects. The
// unfiltered rollup's bytes do not grow on the smaller tier, whose
// structure has a multiple hierarchy: the scan's emission buffer is
// sized once, and a shard that emits more than it holds is folded in
// runs (it grew by append there, 64 640 B at N against 22 624 at 4N).
// The median of 8 runs.
func TestCostFilteredRollup(t *testing.T) {
	diced := core.Query{Measures: []string{"m0"}, GroupBy: []core.GroupBy{{Dim: "Org", Level: "Division"}},
		Grain: core.GrainYear, Mode: core.TCM(), Filters: []core.Filter{{Dim: "Org", Members: []string{"div-0"}}}}
	whole := diced
	whole.Filters = nil
	var objects, unfiltered, unfilteredBytes [2]float64
	for i := range costSizes {
		s := costTier(t, i)
		res, err := s.Execute(diced) // builds the rollup tables
		if err != nil || res.Len() != 6 || res.Group(0, 0) != "div-0" {
			t.Fatalf("filtered rollup = %d rows, %v; want div-0's six years", res.Len(), err)
		}
		for k, q := range []core.Query{diced, whole} {
			bs, os := make([]uint64, 8), make([]uint64, 8)
			for r := range bs {
				bs[r], os[r] = allocs(func() {
					if _, err := s.Execute(q); err != nil {
						t.Fatal(err)
					}
				})
			}
			if k == 0 {
				objects[i] = float64(median(os))
				t.Logf("%d facts: the filtered rollup allocates %d B in %.0f objects (median)", s.Facts().Len(), median(bs), objects[i])
			} else {
				unfiltered[i], unfilteredBytes[i] = float64(median(os)), float64(median(bs))
				t.Logf("%d facts: the rollup allocates %d B in %.0f objects (median)", s.Facts().Len(), median(bs), unfiltered[i])
			}
		}
	}
	atMost(t, "filtered rollup objects at 4N over N", objects[1]/objects[0], 1.05)
	atMost(t, "rollup bytes at N over 4N", unfilteredBytes[0]/unfilteredBytes[1], 1.05)
	atMost(t, "filtered rollup objects over the unfiltered at N", objects[0]/unfiltered[0], 2)
	atMost(t, "filtered rollup objects over the unfiltered at 4N", objects[1]/unfiltered[1], 2)
}

// TestCostDrill: a drill down pays for its answer: its cells cost bytes
// per output row, at N and 4N (the ingest warehouse's 12 000 and 48 000
// department-quarters) — the scan's cell columns, in chunks, and the
// result's, exactly sized; no rows. The per-row cost moves a little
// with how full the last chunk is and with the fixed cost of the scan,
// spread over fewer rows at N. Bounds: the measured 78.7 and 65.0 B a
// row, plus 15 %.
func TestCostDrill(t *testing.T) {
	var perRow [2]float64
	for i, months := range costSizes {
		s := costWarehouse(t, months)
		res, err := s.Execute(costDrillQuery)
		if err != nil || res.Len() != costLeaves*months/3 {
			t.Fatalf("drill: %d rows, %v; want one a department and quarter", res.Len(), err)
		}
		const runs = 4
		b, _ := allocs(func() {
			for r := 0; r < runs; r++ {
				if _, err := s.Execute(costDrillQuery); err != nil {
					t.Fatal(err)
				}
			}
		})
		perRow[i] = float64(b) / runs / float64(res.Len())
		t.Logf("%d facts: the drill allocates %.1f B a row for %d rows", s.Facts().Len(), perRow[i], res.Len())
	}
	atMost(t, "drill bytes a row at N", perRow[0], 90)
	atMost(t, "drill bytes a row at 4N", perRow[1], 75)
}
