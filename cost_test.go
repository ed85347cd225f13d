package mvolap_test

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/quality"
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
// entry, whatever the size of the store. Two warehouses at N and 4N:
// the ingest warehouse (one measure) and the benchmark's tiers S and M
// as generated (two measures, 36k and 144k facts). The bytes are
// FactTable.Bytes, which the first row checks once against the live
// heap the facts took.
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
		{"ingest", func(i int) *core.Schema { return costWarehouse(t, costSizes[i]) }, 33},
		{"benchmark", func(i int) *core.Schema {
			w, err := workload.Generate(workload.Config{
				Seed: 1, Divisions: 8, Departments: [2]int{500, 2000}[i], Years: 6,
				EvolutionsPerYear: 20, FactsPerYear: 12, Measures: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			return w.Schema
		}, 41},
	}
	for _, r := range rows {
		for i := range costSizes {
			s := r.build(i)
			ft := s.Facts()
			columns, index := ft.Bytes()
			n := float64(ft.Len())
			per := float64(columns+index) / n
			t.Logf("%s, %d facts: %.1f B a fact (columns %.1f, index %.1f)", r.name, ft.Len(), per, float64(columns)/n, float64(index)/n)
			atMost(t, r.name+" index bytes per live fact", float64(index)/n, 16)
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
	columns, index := s.Facts().Bytes()
	t.Logf("live heap %.0f B, Bytes %d B", grown, columns+index)
	if d := math.Abs(grown-float64(columns+index)) / grown; d > 0.05 {
		t.Errorf("FactTable.Bytes = %d B, %.1f%% off the %.0f B of live heap the facts took", columns+index, 100*d, grown)
	}
	runtime.KeepAlive(s)
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
// eight distinct shards — allocates per fact and per shard it
// privatizes, not per stored fact: no index entry is written or
// rebuilt.
func TestCostRetract(t *testing.T) {
	var objects [2]float64
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
		_, o := allocs(func() {
			c := s.Clone()
			for _, f := range targets {
				if _, err := c.RetractFact(f.Coords, f.Time); err != nil {
					t.Fatal(err)
				}
			}
		})
		objects[i] = float64(o)
		t.Logf("%d facts: an 8-fact retract allocates %.0f objects", s.Facts().Len(), objects[i])
	}
	atMost(t, "8-fact retract objects at 4N", objects[1], 120)
	atMost(t, "8-fact retract objects at 4N over N", objects[1]/objects[0], 1.05)
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
	atMost(t, "cache hit bytes at 4N", bytes[1], 2200)
	atMost(t, "cache hit objects at 4N", objects[1], 17)
	atMost(t, "cache hit bytes at 4N over N", bytes[1]/bytes[0], 1.05)
}
