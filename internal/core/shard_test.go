package core

import (
	"context"
	"math"
	"testing"

	"mvolap/internal/temporal"
)

// bigTCMSchema builds a single-dimension schema with n facts spread
// over distinct (member, month) keys — enough to span several storage
// shards when n exceeds MappedShardSize.
func bigTCMSchema(t testing.TB, n int) *Schema {
	t.Helper()
	s := NewSchema("big", Measure{Name: "Amount", Agg: Sum})
	if err := s.AddDimension(buildOrg(t)); err != nil {
		t.Fatal(err)
	}
	members := []MVID{"Smith", "Brian"}
	for i := 0; i < n; i++ {
		at := ym(2001+(i/2)/12, 1+(i/2)%12)
		if err := s.InsertFact(Coords{members[i%2]}, at, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestWarmCloneAliasesShardsUntilTouched is the property the whole
// sharded layout exists for: a warm clone shares every untouched shard
// with its source — the same *factShard, the same backing arrays — and
// privatizes exactly the shards a delta writes into, leaving the
// source bit-for-bit intact. A silent deep-copy anywhere in the clone
// path would fail the identity checks below.
func TestWarmCloneAliasesShardsUntilTouched(t *testing.T) {
	const n = 2*MappedShardSize + 100
	base := bigTCMSchema(t, n)
	baseT, err := base.MultiVersion().Mode(TCM())
	if err != nil {
		t.Fatal(err)
	}
	if got := baseT.NumShards(); got != 3 {
		t.Fatalf("base table has %d shards, want 3", got)
	}

	clone := base.Clone()
	oldLen := clone.Facts().Len()
	if err := clone.InsertFact(Coords{"Smith"}, ym(2500, 1), 42); err != nil {
		t.Fatal(err)
	}
	res := clone.WarmFrom(context.Background(), base, Delta{NewFacts: clone.Facts().Facts()[oldLen:]})
	if len(res.Retained) != 1 || res.DeltaApplied != 1 {
		t.Fatalf("WarmFrom = %+v, want tcm retained with delta applied", res)
	}
	cloneT, err := clone.MultiVersion().Mode(TCM())
	if err != nil {
		t.Fatal(err)
	}
	if b := clone.MultiVersion().Materializations(); b != 0 {
		t.Fatalf("warm clone performed %d materializations", b)
	}

	// The append landed in the partial tail shard: it alone was
	// privatized; the two full shards are shared by identity.
	if cloneT.NumShards() != 3 {
		t.Fatalf("clone has %d shards, want 3", cloneT.NumShards())
	}
	for si := 0; si < 2; si++ {
		if cloneT.shards[si] != baseT.shards[si] {
			t.Errorf("untouched shard %d was copied, want aliased", si)
		}
	}
	if cloneT.shards[2] == baseT.shards[2] {
		t.Fatal("tail shard still shared after the delta wrote into it")
	}
	if &cloneT.shards[2].times[0] == &baseT.shards[2].times[0] {
		t.Error("privatized tail shard still aliases the base backing arrays")
	}
	if baseT.shards[2].n != 100 || cloneT.shards[2].n != 101 {
		t.Fatalf("tail ns = %d/%d, want 100/101", baseT.shards[2].n, cloneT.shards[2].n)
	}
	if _, ok := baseT.Lookup(Coords{"Smith"}, ym(2500, 1)); ok {
		t.Error("delta fact leaked into the published base table")
	}
	if f, ok := cloneT.Lookup(Coords{"Smith"}, ym(2500, 1)); !ok || f.Values[0] != 42 {
		t.Errorf("delta fact missing from the warm clone: %v %v", f, ok)
	}

	// Shared shards carry the base's epoch, not the clone's: any write
	// into them must go through privatization first.
	if cloneT.epoch == baseT.epoch {
		t.Fatal("clone did not take a fresh epoch")
	}
	for si := 0; si < 2; si++ {
		if cloneT.shards[si].epoch == cloneT.epoch {
			t.Errorf("shared shard %d claims to be owned by the clone", si)
		}
	}
	if cloneT.shards[2].epoch != cloneT.epoch {
		t.Error("privatized tail shard does not carry the clone's epoch")
	}
}

// TestMergePrivatizesOnlyTouchedShard drives a merge (add at an
// existing key) into the first shard of a warm clone: that shard must
// be privatized and folded, every other shard must stay shared, and
// the source tuple must keep its original bits.
func TestMergePrivatizesOnlyTouchedShard(t *testing.T) {
	const n = MappedShardSize + 50
	s := bigTCMSchema(t, n)
	baseT, err := s.MultiVersion().Mode(TCM())
	if err != nil {
		t.Fatal(err)
	}
	out := baseT.cloneForWarm(TCM(), s.alg, s.measures)

	// Tuple 0 lives in shard 0: fold a second contribution into it.
	f0 := baseT.Facts()[0]
	wantBase := f0.Values[0]
	out.add(f0.Coords, f0.Time, []float64{5}, []Confidence{SourceData})

	if out.Len() != baseT.Len() {
		t.Fatalf("merge changed the tuple count: %d vs %d", out.Len(), baseT.Len())
	}
	if out.shards[0] == baseT.shards[0] {
		t.Fatal("merged-into shard still shared")
	}
	if out.shards[1] != baseT.shards[1] {
		t.Error("untouched shard was copied by a merge elsewhere")
	}
	if got := baseT.shards[0].values[0]; got != wantBase {
		t.Errorf("merge leaked into the published source: %v", got)
	}
	if got := out.shards[0].values[0]; got != wantBase+5 {
		t.Errorf("merge result = %v, want %v", got, wantBase+5)
	}
	if got := out.shards[0].sources[0]; got != 2 {
		t.Errorf("merged sources = %d, want 2", got)
	}
	if got := baseT.shards[0].sources[0]; got != 1 {
		t.Errorf("source count mutated on the published table: %d", got)
	}
}

// TestCloneForWarmAllocationBound is the satellite-6 regression: the
// cost of a warm clone must be O(shard headers), never O(warehouse).
// Allocation counts are the tripwire — the old layout copied one
// pointer slice entry and one owned-map entry per tuple, so its
// allocation profile scaled with the table; the sharded clone performs
// a small constant number of allocations at any size.
func TestCloneForWarmAllocationBound(t *testing.T) {
	small := bigTCMSchema(t, 2*MappedShardSize)
	big := bigTCMSchema(t, 8*MappedShardSize)
	smallT, err := small.MultiVersion().Mode(TCM())
	if err != nil {
		t.Fatal(err)
	}
	bigT, err := big.MultiVersion().Mode(TCM())
	if err != nil {
		t.Fatal(err)
	}
	allocsSmall := testing.AllocsPerRun(20, func() {
		_ = smallT.cloneForWarm(TCM(), small.alg, small.measures)
	})
	allocsBig := testing.AllocsPerRun(20, func() {
		_ = bigT.cloneForWarm(TCM(), big.alg, big.measures)
	})
	if allocsBig > allocsSmall {
		t.Errorf("cloneForWarm allocations scale with table size: %v at 2 shards, %v at 8", allocsSmall, allocsBig)
	}
	if allocsBig > 8 {
		t.Errorf("cloneForWarm performs %v allocations, want a small constant", allocsBig)
	}
}

// TestQueryParallelMatchesSequential asserts the scan-side determinism
// guarantee: the parallel classification + sequential fold pipeline
// returns results bit-identical to a single-worker scan, for any
// worker count, including CFs and row order.
func TestQueryParallelMatchesSequential(t *testing.T) {
	s := bigTCMSchema(t, 3000)
	q := Query{
		GroupBy: []GroupBy{{Dim: "Org", Level: "Division"}},
		Grain:   GrainYear,
		Filters: []Filter{{Dim: "Org", Members: []string{"Sales", "R&D"}}},
		Mode:    TCM(),
	}
	s.SetMaterializeWorkers(1)
	want, err := s.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("fixture query returned no rows")
	}
	for _, workers := range []int{2, 3, 8} {
		s.SetMaterializeWorkers(workers)
		got, err := s.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			w, g := want.Rows[i], got.Rows[i]
			if g.TimeKey != w.TimeKey || g.N != w.N {
				t.Fatalf("workers=%d row %d: (%s,%d) vs (%s,%d)", workers, i, g.TimeKey, g.N, w.TimeKey, w.N)
			}
			for k := range w.Groups {
				if g.Groups[k] != w.Groups[k] || g.GroupIDs[k] != w.GroupIDs[k] {
					t.Fatalf("workers=%d row %d: groups differ", workers, i)
				}
			}
			for k := range w.Values {
				if math.Float64bits(g.Values[k]) != math.Float64bits(w.Values[k]) {
					t.Fatalf("workers=%d row %d: value bits differ: %v vs %v", workers, i, g.Values[k], w.Values[k])
				}
				if g.CFs[k] != w.CFs[k] {
					t.Fatalf("workers=%d row %d: CFs differ", workers, i)
				}
			}
		}
	}
}

// BenchmarkMappedTableLookup measures the index probe of a warm clone
// at its worst and at its best. The deep table has absorbed exactly as
// many fresh keys as give the key index its maximum layer count before
// the next flatten (2^k−1 seals leave k sealed layers over the bottom),
// so a bottom hit and a miss pay a probe of the top and of every layer;
// a fresh clone of a cold-built table pays one probe, its empty top
// skipped.
func BenchmarkMappedTableLookup(b *testing.B) {
	const n = 16 * MappedShardSize
	s := bigTCMSchema(b, n)
	baseT, err := s.MultiVersion().Mode(TCM())
	if err != nil {
		b.Fatal(err)
	}
	depth := 0
	for ((2<<depth)-1)*indexSealAt*indexFlattenRatio <= n {
		depth++
	}
	seals := 1<<depth - 1 // the most the overlay takes below a quarter of the bottom
	fresh := func(i int) (Coords, temporal.Instant) { return Coords{"Smith"}, ym(9000+i/12, 1+i%12) }
	deep := baseT.cloneForWarm(TCM(), s.alg, s.measures)
	for i := 0; i <= seals*indexSealAt; i++ {
		c, at := fresh(i)
		deep.add(c, at, []float64{1}, []Confidence{SourceData})
	}
	if got := len(deep.index.layers); got != depth+1 {
		b.Fatalf("deep table has %d index layers, want the bottom plus %d", got, depth)
	}

	f0 := baseT.Facts()[0]
	bottomKey := appendFactKey(nil, f0.Coords, f0.Time)
	c, at := fresh(seals * indexSealAt) // the last key added: alone in the top
	topKey := appendFactKey(nil, c, at)
	missKey := appendFactKey(nil, Coords{"Smith"}, ym(8000, 1))
	probe := func(mt *MappedTable, key []byte, want bool) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := mt.index.get(key); ok != want {
					b.Fatalf("get = %v, want %v", ok, want)
				}
			}
		}
	}
	b.Run("bottom-hit-max-depth", probe(deep, bottomKey, true))
	b.Run("top-hit", probe(deep, topKey, true))
	b.Run("miss-max-depth", probe(deep, missKey, false))
	b.Run("bottom-hit-fresh-clone", probe(baseT.cloneForWarm(TCM(), s.alg, s.measures), bottomKey, true))
}
