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

// slotValue returns the first value of slot j of a one-measure shard,
// through the shard's accessor.
func slotValue(sh *factShard, j int) float64 { return sh.valuesAt(make([]float64, 1), j)[0] }

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
	if &ct.offs[0] != &bt.offs[0] || &ct.coords[0] != &bt.coords[0] || &ct.ints[0] != &bt.ints[0] {
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

// TestMergePrivatizesOnlyTouchedShard drives a write at an existing
// key — a replacing insert; the store merges nothing, a mode's merges
// being presented — into the first shard of a table's clone. A
// correction is a tombstone plus an append, so it privatizes nothing:
// the touched shard takes a header of the clone's own over the same
// columns, with the old slot's live bit cleared, the new tuple lands in
// the borrowed tail, every other shard stays shared, and the source
// tuple keeps its bits and its live bit.
func TestMergePrivatizesOnlyTouchedShard(t *testing.T) {
	const n = MappedShardSize + 50
	s := bigTCMSchema(t, n)
	baseT := s.Facts()
	out := s.Clone().Facts()
	privatized := metShardsPrivatized.Value()

	// Tuple 0 lives in shard 0: replace its value.
	f0 := baseT.Facts()[0]
	wantBase := f0.Values[0]
	if err := out.Insert(f0.Coords, f0.Time, wantBase+5); err != nil {
		t.Fatal(err)
	}

	if out.Len() != baseT.Len() || out.n != n+1 {
		t.Fatalf("replacement: %d facts in %d slots, want %d in %d", out.Len(), out.n, baseT.Len(), n+1)
	}
	h0, tail := out.shards[0], out.shards[1]
	if h0 == baseT.shards[0] || &h0.ints[0] != &baseT.shards[0].ints[0] || h0.isLive(0) || !baseT.shards[0].isLive(0) {
		t.Fatal("the replacement's tombstone did not take a header of its own over shard 0's columns")
	}
	if tail == baseT.shards[1] || &tail.offs[0] != &baseT.shards[1].offs[0] || tail.sharedBelow != 50 || slotValue(tail, 50) != wantBase+5 {
		t.Fatalf("the replacement did not append into the borrowed tail (sharedBelow %d)", tail.sharedBelow)
	}
	if got := slotValue(baseT.shards[0], 0); got != wantBase {
		t.Errorf("replacement leaked into the published source: %v", got)
	}
	if last := out.Facts()[n-1]; !last.Coords.Equal(f0.Coords) || last.Time != f0.Time || last.Values[0] != wantBase+5 {
		t.Errorf("the replaced fact is not last in store order: %v", last)
	}

	// A replacement of the tuple this table just appended, and of one
	// below the tail's sharedBelow — one the base still reads — clear
	// their bits in the header the table owns and append behind them.
	fresh := Coords{"Smith"}
	if err := out.Insert(fresh, ym(2600, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := out.Insert(fresh, ym(2600, 1), 3); err != nil {
		t.Fatal(err)
	}
	f1 := baseT.Facts()[MappedShardSize]
	want1 := f1.Values[0]
	if err := out.Insert(f1.Coords, f1.Time, want1+5); err != nil {
		t.Fatal(err)
	}
	if out.shards[1] != tail || tail.n != 54 || tail.isLive(51) || tail.isLive(0) || slotValue(tail, 52) != 3 || slotValue(tail, 53) != want1+5 {
		t.Fatalf("replacements in the borrowed tail: n %d, slot 51 live %v, slot 0 live %v, slots 52/53 %v/%v; want 54, false, false, 3/%v",
			tail.n, tail.isLive(51), tail.isLive(0), slotValue(tail, 52), slotValue(tail, 53), want1+5)
	}
	if !baseT.shards[1].isLive(0) || slotValue(baseT.shards[1], 0) != want1 || baseT.shards[1].n != 50 {
		t.Error("a replacement in the borrowed tail changed the source's tuple")
	}
	if p := metShardsPrivatized.Value() - privatized; p != 0 {
		t.Errorf("%d shards privatized by replacements, want 0", p)
	}
}

// TestRetractBorrowsHeaderNotColumns: a retraction writes one live bit,
// which belongs to a shard's header alone, so a retraction on a clone
// takes a header of the clone's own over the source's columns — the
// same backing arrays, a copied bitmap, no claim — and copies no
// column. The source keeps its header and its answers; a replacement
// is a tombstone plus an append, so it copies no column either, and a
// re-inserted key appends afresh. In a partial tail the header shares the source's
// claim: the retracting clone appends in place, a sibling that comes
// second loses the claim and privatizes.
func TestRetractBorrowsHeaderNotColumns(t *testing.T) {
	const n = 2*MappedShardSize + 100
	base := bigTCMSchema(t, n)
	baseT := base.Facts()
	before := answers(t, base)
	bt := baseT.shards[0]
	btLive, btN, btEpoch := *bt.live, bt.n, bt.epoch
	facts := baseT.Facts()
	dead, kept := facts[17], facts[5]

	privatized, borrowed := metShardsPrivatized.Value(), metShardsBorrowed.Value()
	g1 := base.Clone()
	if _, err := g1.RetractFact(dead.Coords, dead.Time); err != nil {
		t.Fatal(err)
	}
	g1T := g1.Facts()
	ct := g1T.shards[0]
	if ct == bt || ct.epoch != g1T.epoch {
		t.Fatal("the retraction cleared the bit in the source's header")
	}
	if &ct.coords[0] != &bt.coords[0] || &ct.ints[0] != &bt.ints[0] || &ct.offs[0] != &bt.offs[0] {
		t.Error("the retraction copied the shard's columns, want its header over the source's")
	}
	if &ct.live[0] == &bt.live[0] || ct.isLive(17) || !ct.isLive(16) || ct.n != bt.n || ct.sharedBelow != bt.n {
		t.Errorf("the retracting header: own bitmap %v, bit 17 %v, n %d, sharedBelow %d; want own, cleared, %d, %d",
			&ct.live[0] != &bt.live[0], ct.isLive(17), ct.n, ct.sharedBelow, bt.n, bt.n)
	}
	if g1T.shards[1] != baseT.shards[1] || g1T.shards[2] != baseT.shards[2] {
		t.Error("a retraction in shard 0 touched another shard")
	}
	if *bt.live != btLive || bt.n != btN || bt.epoch != btEpoch || bt.sharedBelow != 0 {
		t.Error("the retraction changed the source's header")
	}
	if got := metShardsPrivatized.Value() - privatized; got != 0 {
		t.Errorf("%d shards privatized by a retraction, want 0", got)
	}
	if got := metShardsBorrowed.Value() - borrowed; got != 1 {
		t.Errorf("%d shards borrowed by a retraction, want 1", got)
	}
	// A second retraction in a header the table owns clears the bit in
	// place, below sharedBelow as well.
	if _, err := g1.RetractFact(facts[18].Coords, facts[18].Time); err != nil {
		t.Fatal(err)
	}
	if g1T.shards[0] != ct || ct.isLive(18) || !bt.isLive(18) || metShardsBorrowed.Value()-borrowed != 1 {
		t.Error("a second retraction in an owned header did not clear its bit in place")
	}
	requireSameAnswers(t, "source after the retraction", answers(t, base), before)
	if _, ok := baseT.Lookup(dead.Coords, dead.Time); !ok {
		t.Error("the retracted fact left the source")
	}
	if _, ok := g1T.Lookup(dead.Coords, dead.Time); ok || g1T.Len() != n-2 {
		t.Errorf("the clone still holds the retracted fact, or holds %d facts, want %d", g1T.Len(), n-2)
	}
	modesMatchCold(t, "retracting clone", g1)
	mid := answers(t, g1)

	// A replacing insert is a tombstone plus an append, and writes no
	// column: in the next generation it takes a header of its own over
	// the old tuple's shard and appends to the borrowed tail, and in a
	// table that already owns the header it clears the bit in place,
	// below sharedBelow too. No older generation sees it. Re-inserting
	// a retracted key appends a fresh tuple at the end as well.
	privatized = metShardsPrivatized.Value()
	g2 := g1.Clone()
	if err := g2.InsertFact(kept.Coords, kept.Time, kept.Values[0]+5); err != nil {
		t.Fatal(err)
	}
	g2T := g2.Facts()
	p := g2T.shards[0]
	if p == ct || &p.ints[0] != &bt.ints[0] || p.isLive(17) || p.isLive(5) || !ct.isLive(5) {
		t.Error("a replacement did not take a header of its own over the old tuple's shard")
	}
	if v, ok := g2T.Lookup(kept.Coords, kept.Time); !ok || v[0] != kept.Values[0]+5 || g2T.n != n+1 || !g2T.shards[2].isLive(100) {
		t.Errorf("replaced fact = %v, %v in %d slots; want %v appended at %d", v, ok, g2T.n, kept.Values[0]+5, n)
	}
	if err := g2.InsertFact(dead.Coords, dead.Time, 7); err != nil {
		t.Fatal(err)
	}
	if g2T.n != n+2 || g2T.shards[0].isLive(17) || !g2T.shards[2].isLive(101) {
		t.Errorf("re-insert: %d tuples, slot 17 live %v; want a fresh tuple at %d", g2T.n, g2T.shards[0].isLive(17), n+1)
	}
	if v, ok := g2T.Lookup(dead.Coords, dead.Time); !ok || v[0] != 7 {
		t.Errorf("re-inserted fact = %v, %v; want 7", v, ok)
	}
	modesMatchCold(t, "replacing generation", g2)
	replaced := answers(t, g2)
	own := g2.Clone()
	if _, err := own.RetractFact(facts[19].Coords, facts[19].Time); err != nil {
		t.Fatal(err)
	}
	ownT := own.Facts()
	oh := ownT.shards[0]
	if err := own.InsertFact(facts[6].Coords, facts[6].Time, -1); err != nil {
		t.Fatal(err)
	}
	if ownT.shards[0] != oh || oh.isLive(6) || oh.isLive(19) || &oh.ints[0] != &bt.ints[0] || !p.isLive(6) {
		t.Error("a replacement below sharedBelow of the table's own header did not clear its bit in place")
	}
	if v, ok := ownT.Lookup(facts[6].Coords, facts[6].Time); !ok || v[0] != -1 {
		t.Errorf("replaced fact = %v, %v; want -1", v, ok)
	}
	if got := metShardsPrivatized.Value() - privatized; got != 0 {
		t.Errorf("%d shards privatized by two replacements, want 0", got)
	}
	if slotValue(bt, 5) != kept.Values[0] || slotValue(bt, 6) != facts[6].Values[0] {
		t.Error("a replacement wrote into the shared columns")
	}
	requireSameAnswers(t, "source after the replacements", answers(t, base), before)
	requireSameAnswers(t, "retracting generation after the replacements", answers(t, g1), mid)
	requireSameAnswers(t, "replacing generation after its clone's replacement", answers(t, g2), replaced)
	modesMatchCold(t, "generation replacing in its own header", own)

	// A retraction in the partial tail shares the tail's claim: the
	// retracting clone appends in place behind the shared prefix, and a
	// sibling appending after it has lost the claim and privatizes.
	base = bigTCMSchema(t, MappedShardSize+100)
	before = answers(t, base)
	baseT = base.Facts()
	tail := baseT.shards[1]
	f10 := baseT.Facts()[MappedShardSize+10]
	c1, c2 := base.Clone(), base.Clone()
	privatized, borrowed = metShardsPrivatized.Value(), metShardsBorrowed.Value()
	if _, err := c1.RetractFact(f10.Coords, f10.Time); err != nil {
		t.Fatal(err)
	}
	if err := c1.InsertFact(Coords{"Smith"}, ym(2600, 1), 1); err != nil {
		t.Fatal(err)
	}
	c1t := c1.Facts().shards[1]
	if c1t == tail || &c1t.coords[0] != &tail.coords[0] || c1t.claim != tail.claim || c1t.n != 101 || c1t.isLive(10) || !c1t.isLive(100) {
		t.Error("the retracting clone did not append in place behind its borrowed tail header")
	}
	if p, b := metShardsPrivatized.Value()-privatized, metShardsBorrowed.Value()-borrowed; p != 0 || b != 1 {
		t.Errorf("retract then append: %d privatized, %d borrowed; want 0, 1", p, b)
	}
	if err := c2.InsertFact(Coords{"Brian"}, ym(2700, 1), 2); err != nil {
		t.Fatal(err)
	}
	c2t := c2.Facts().shards[1]
	if &c2t.coords[0] == &tail.coords[0] || c2t.n != 101 || !c2t.isLive(10) {
		t.Error("the sibling appended into the columns the retracting clone claimed")
	}
	if p := metShardsPrivatized.Value() - privatized; p != 1 {
		t.Errorf("the sibling privatized %d shards, want 1", p)
	}
	if tail.n != 100 || !tail.isLive(10) || tail.isLive(100) {
		t.Error("the source's tail header changed")
	}
	requireSameAnswers(t, "source of the siblings", answers(t, base), before)
	modesMatchCold(t, "retracting sibling", c1)
	modesMatchCold(t, "second sibling", c2)
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
	if &ft.shards[tail].offs[0] != &bt.shards[tail].offs[0] || &st.shards[tail].offs[0] == &bt.shards[tail].offs[0] {
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
