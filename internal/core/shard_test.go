package core

import (
	"fmt"
	"runtime"
	"sync"
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
// sharded layout exists for: a clone of the fact store shares every
// untouched shard
// with its source — the same *factShard, the same backing arrays — and
// appends into the shared partial tail in place, under a header of its
// own that claimed the slot, leaving the source bit-for-bit intact. A
// silent copy anywhere in the clone or append path would fail the
// identity checks below.
func TestWarmCloneAliasesShardsUntilTouched(t *testing.T) {
	const n = 2*MappedShardSize + 100
	base := bigTCMSchema(t, n)
	baseT := base.Facts()
	if got := len(baseT.shards); got != 3 {
		t.Fatalf("base table has %d shards, want 3", got)
	}

	privatized, borrowed := metShardsPrivatized.Value(), metShardsBorrowed.Value()
	clone := base.Clone()
	if err := clone.InsertFact(Coords{"Smith"}, ym(2500, 1), 42); err != nil {
		t.Fatal(err)
	}
	cloneT := clone.Facts()

	// The append landed in the partial tail shard: the clone borrowed it
	// — its own header over the base's columns, sharing the first 100
	// slots — and copied nothing; the two full shards are shared by
	// identity.
	if len(cloneT.shards) != 3 {
		t.Fatalf("clone has %d shards, want 3", len(cloneT.shards))
	}
	for si := 0; si < 2; si++ {
		if cloneT.shards[si] != baseT.shards[si] {
			t.Errorf("untouched shard %d was copied, want aliased", si)
		}
	}
	bt, ct := baseT.shards[2], cloneT.shards[2]
	if ct == bt {
		t.Fatal("the clone appended through the base's own tail header")
	}
	if &ct.times[0] != &bt.times[0] || &ct.coords[0] != &bt.coords[0] || &ct.values[0] != &bt.values[0] {
		t.Error("borrowed tail shard does not alias the base backing arrays")
	}
	if bt.n != 100 || ct.n != 101 || ct.sharedBelow != 100 {
		t.Fatalf("tail ns = %d/%d, sharedBelow %d; want 100/101, 100", bt.n, ct.n, ct.sharedBelow)
	}
	if ct.claim != bt.claim || bt.claim.Load() != 101 {
		t.Errorf("tail claim not shared or not taken: %d", bt.claim.Load())
	}
	if &ct.live[0] == &bt.live[0] || !ct.isLive(100) || bt.isLive(100) || !bt.isLive(99) || !ct.isLive(99) {
		t.Error("the borrowed tail's live bitmap is not its own, or its bits are wrong")
	}
	if got := metShardsPrivatized.Value() - privatized; got != 0 {
		t.Errorf("%d shards privatized by an append-only delta, want 0", got)
	}
	if got := metShardsBorrowed.Value() - borrowed; got != 1 {
		t.Errorf("%d shards borrowed, want 1", got)
	}
	if baseT.Len() != n || cloneT.Len() != n+1 {
		t.Errorf("Len = %d/%d, want %d/%d", baseT.Len(), cloneT.Len(), n, n+1)
	}
	if _, ok := baseT.Lookup(Coords{"Smith"}, ym(2500, 1)); ok {
		t.Error("delta fact leaked into the published base table")
	}
	if v, ok := cloneT.Lookup(Coords{"Smith"}, ym(2500, 1)); !ok || v[0] != 42 {
		t.Errorf("delta fact missing from the clone: %v %v", v, ok)
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
		t.Error("borrowed tail shard does not carry the clone's epoch")
	}
}

// TestMergePrivatizesOnlyTouchedShard drives a write into an existing
// slot — a replacing insert; the store merges nothing, a mode's merges
// being presented — into the first shard of a table's clone: that shard
// must be privatized and written, every other shard must stay shared,
// and the source tuple must keep its original bits.
func TestMergePrivatizesOnlyTouchedShard(t *testing.T) {
	const n = MappedShardSize + 50
	s := bigTCMSchema(t, n)
	baseT := s.Facts()
	out := s.Clone().Facts()

	// Tuple 0 lives in shard 0: replace its value.
	f0 := baseT.Facts()[0]
	wantBase := f0.Values[0]
	if err := out.Insert(f0.Coords, f0.Time, wantBase+5); err != nil {
		t.Fatal(err)
	}

	if out.Len() != baseT.Len() {
		t.Fatalf("replacement changed the tuple count: %d vs %d", out.Len(), baseT.Len())
	}
	if out.shards[0] == baseT.shards[0] {
		t.Fatal("written shard still shared")
	}
	if out.shards[1] != baseT.shards[1] {
		t.Error("untouched shard was copied by a write elsewhere")
	}
	if got := baseT.shards[0].values[0]; got != wantBase {
		t.Errorf("replacement leaked into the published source: %v", got)
	}
	if got := out.shards[0].values[0]; got != wantBase+5 {
		t.Errorf("replacement result = %v, want %v", got, wantBase+5)
	}
	if !out.shards[0].isLive(0) || !baseT.shards[0].isLive(0) {
		t.Error("a replacement changed a live bit")
	}

	// Shard 1 is the partial tail. An append borrows it; a write into the
	// slot this table just appended stays in place, a write into a slot
	// below sharedBelow — one the base still reads — privatizes it.
	fresh := Coords{"Smith"}
	if err := out.Insert(fresh, ym(2600, 1), 1); err != nil {
		t.Fatal(err)
	}
	borrowed := out.shards[1]
	if borrowed == baseT.shards[1] || &borrowed.times[0] != &baseT.shards[1].times[0] || borrowed.sharedBelow != 50 {
		t.Fatalf("append into the partial tail did not borrow it (sharedBelow %d)", borrowed.sharedBelow)
	}
	if err := out.Insert(fresh, ym(2600, 1), 3); err != nil {
		t.Fatal(err)
	}
	if out.shards[1] != borrowed || borrowed.values[50] != 3 {
		t.Fatalf("write into an owned slot of a borrowed tail copied it or lost the value (%v)", borrowed.values[50])
	}
	f1 := baseT.Facts()[MappedShardSize]
	want1 := f1.Values[0]
	if err := out.Insert(f1.Coords, f1.Time, want1+5); err != nil {
		t.Fatal(err)
	}
	priv := out.shards[1]
	if priv == borrowed || &priv.times[0] == &baseT.shards[1].times[0] || priv.sharedBelow != 0 {
		t.Fatal("write below sharedBelow wrote into the shared columns")
	}
	if baseT.shards[1].values[0] != want1 || priv.values[0] != want1+5 || priv.values[50] != 3 {
		t.Errorf("after privatizing: base %v, clone %v/%v; want %v, %v/3",
			baseT.shards[1].values[0], priv.values[0], priv.values[50], want1, want1+5)
	}
}

// TestWarmSiblingClonesFoldIndependently holds the claim rule on the
// fact store: two clones of one published schema each write a fact
// batch. The first borrows the store's partial tail and copies nothing;
// the second finds the tail's next slot claimed and copies instead.
// Then two clones of the first race for the same slots concurrently:
// exactly one borrows. Base and every clone must answer in every mode
// like a cold clone of its own facts and the oracle, bit for bit.
func TestWarmSiblingClonesFoldIndependently(t *testing.T) {
	base := bigTCMSchema(t, MappedShardSize+100)
	before := answers(t, base)
	// write applies a batch to c, a clone of from. Cloning stays with the
	// caller: Clone writes from's ownership state, so it is never called
	// concurrently on one schema.
	write := func(c *Schema, year int) *Schema {
		for i, id := range []MVID{"Smith", "Brian", "Smith"} {
			if err := c.InsertFact(Coords{id}, ym(year, 1+i), float64(year+i)); err != nil {
				t.Error(err)
				return c
			}
		}
		return c
	}
	counts := func() (int64, int64) {
		return metShardsBorrowed.Value(), metShardsPrivatized.Value()
	}

	b0, p0 := counts()
	first := write(base.Clone(), 2600)
	b1, p1 := counts()
	if b1-b0 != 1 || p1 != p0 {
		t.Errorf("first sibling: %d borrowed, %d privatized; want 1, 0", b1-b0, p1-p0)
	}
	second := write(base.Clone(), 2700)
	b2, p2 := counts()
	if b2 != b1 || p2-p1 != 1 {
		t.Errorf("second sibling: %d borrowed, %d privatized; want 0, 1", b2-b1, p2-p1)
	}
	bt, ft, st := base.Facts(), first.Facts(), second.Facts()
	tail := len(bt.shards) - 1
	if &ft.shards[tail].times[0] != &bt.shards[tail].times[0] || &st.shards[tail].times[0] == &bt.shards[tail].times[0] {
		t.Error("the first sibling must append into the base's tail columns, the second into a copy")
	}

	// Two generations racing for the same slots.
	var wg sync.WaitGroup
	racers := []*Schema{first.Clone(), first.Clone()}
	for i := range racers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			write(racers[i], 2800+100*i)
		}(i)
	}
	wg.Wait()
	b3, p3 := counts()
	if b3-b2 != 1 || p3-p2 != 1 {
		t.Errorf("racing siblings: %d borrowed, %d privatized; want 1 each (one winner)", b3-b2, p3-p2)
	}

	modesMatchCold(t, "base", base)
	modesMatchCold(t, "first", first)
	modesMatchCold(t, "second", second)
	for i, r := range racers {
		modesMatchCold(t, fmt.Sprintf("racer%d", i), r)
	}
	requireSameAnswers(t, "published base", answers(t, base), before)
}

// TestCloneForWarmAllocationBound is the regression for a table's
// copy-on-write clone (FactTable.clone, behind every Schema.Clone):
// its cost must be O(shard headers), never O(warehouse).
// Allocation counts are the tripwire — the old layout copied one
// pointer slice entry and one owned-map entry per tuple, so its
// allocation profile scaled with the table; the sharded clone performs
// a small constant number of allocations at any size.
func TestCloneForWarmAllocationBound(t *testing.T) {
	small := bigTCMSchema(t, 2*MappedShardSize)
	big := bigTCMSchema(t, 8*MappedShardSize)
	smallT, bigT := small.Facts(), big.Facts()
	allocsSmall := testing.AllocsPerRun(20, func() {
		_ = smallT.clone(small)
	})
	allocsBig := testing.AllocsPerRun(20, func() {
		_ = bigT.clone(big)
	})
	if allocsBig > allocsSmall {
		t.Errorf("clone allocations scale with table size: %v at 2 shards, %v at 8", allocsSmall, allocsBig)
	}
	if allocsBig > 8 {
		t.Errorf("clone performs %v allocations, want a small constant", allocsBig)
	}
}

// bytesPerRun returns the bytes allocated per call of f, averaged over
// runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSchemaCloneAllocationFlat: a Schema.Clone costs O(dimensions)
// plus the key index's bounded top, never O(facts) — the same bytes at
// 10k facts as at 100k. (While it copied the pointer list and deep-
// copied the dimensions it allocated 93 KB at 10k facts, 814 KB at
// 100k.)
func TestSchemaCloneAllocationFlat(t *testing.T) {
	small, big := bigTCMSchema(t, 10_000), bigTCMSchema(t, 100_000)
	bSmall := bytesPerRun(50, func() { _ = small.Clone() })
	bBig := bytesPerRun(50, func() { _ = big.Clone() })
	if bBig > bSmall+bSmall/4 {
		t.Errorf("Schema.Clone allocates %d B at 10k facts and %d B at 100k", bSmall, bBig)
	}
	if bBig > 8<<10 {
		t.Errorf("Schema.Clone allocates %d B, want a few KB", bBig)
	}
}

// TestFactWriteAllocation bounds what a 32-fact write costs in core —
// clone and insert; no mode is left to warm — on a 32k-fact table that
// every mode has been asked about. Before clones shared the pointer
// list, the dimensions and the partial tail shards, the same loop
// (with three version modes warm) allocated 589 000 B per write, nearly
// all of it the copied list (270 KB) and four privatized tails; the
// bound is a quarter of that.
func TestFactWriteAllocation(t *testing.T) {
	const before = 589_000
	s := bigTCMSchema(t, 8*MappedShardSize)
	for _, m := range s.Modes() {
		if _, err := s.Execute(Query{Mode: m}); err != nil {
			t.Fatal(err)
		}
	}
	write := 0
	per := bytesPerRun(64, func() {
		c := s.Clone()
		for i := 0; i < 32; i++ {
			if err := c.InsertFact(Coords{"Smith"}, ym(9000, 1)+temporal.Instant(32*write+i), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		s = c
		write++
	})
	t.Logf("%d B per 32-fact write (%d B before copy-on-write)", per, before)
	if per > before/4 {
		t.Errorf("a 32-fact write allocates %d B in core, want at most a quarter of %d B", per, before)
	}
}

// BenchmarkFactTableLookup measures the index probe of a table clone
// at its worst and at its best. The deep table has absorbed exactly as
// many fresh keys as give the key index its maximum layer count before
// the next flatten (2^k−1 seals leave k sealed layers over the bottom),
// so a bottom hit and a miss pay a probe of the top and of every layer;
// a fresh clone of a freshly loaded table pays one probe, its empty top
// skipped.
func BenchmarkFactTableLookup(b *testing.B) {
	const n = 16 * MappedShardSize
	s := bigTCMSchema(b, n)
	baseT := s.Facts()
	depth := 0
	for ((2<<depth)-1)*indexSealAt*indexFlattenRatio <= n {
		depth++
	}
	seals := 1<<depth - 1 // the most the overlay takes below a quarter of the bottom
	fresh := func(i int) (Coords, temporal.Instant) { return Coords{"Smith"}, ym(9000+i/12, 1+i%12) }
	deep := baseT.clone(s)
	for i := 0; i <= seals*indexSealAt; i++ {
		c, at := fresh(i)
		if err := deep.Insert(c, at, 1); err != nil {
			b.Fatal(err)
		}
	}
	if got := len(deep.index.layers); got != depth+1 {
		b.Fatalf("deep table has %d index layers, want the bottom plus %d", got, depth)
	}

	f0 := baseT.Facts()[0]
	c, at := fresh(seals * indexSealAt) // the last key added: alone in the top
	probe := func(ft *FactTable, c Coords, at temporal.Instant, want bool) func(b *testing.B) {
		ords := ordsOf(s, c)
		h := tupleKey(ords, at)
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := ft.find(h, ords, at); ok != want {
					b.Fatalf("find = %v, want %v", ok, want)
				}
			}
		}
	}
	b.Run("bottom-hit-max-depth", probe(deep, f0.Coords, f0.Time, true))
	b.Run("top-hit", probe(deep, c, at, true))
	b.Run("miss-max-depth", probe(deep, Coords{"Smith"}, ym(8000, 1), false))
	b.Run("bottom-hit-fresh-clone", probe(baseT.clone(s), f0.Coords, f0.Time, true))
}
