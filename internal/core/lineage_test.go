package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mvolap/internal/temporal"
)

// lineageSchema builds a warehouse of leaves*months facts whose leaf
// validity starts in one of three years, so it has three structure
// versions — four temporal modes with tcm — and warms every mode.
func lineageSchema(t testing.TB, leaves, months int) *Schema {
	t.Helper()
	s := NewSchema("lineage", Measure{Name: "Amount", Agg: Sum})
	d := NewDimension("Org", "Org")
	if err := d.AddVersion(&MemberVersion{ID: "top", Level: "Division", Valid: temporal.Since(y(2000))}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < leaves; i++ {
		id, start := lineageLeaf(i), y(2000+i%3)
		if err := d.AddVersion(&MemberVersion{ID: id, Level: "Department", Valid: temporal.Since(start)}); err != nil {
			t.Fatal(err)
		}
		if err := d.AddRelationship(TemporalRelationship{From: id, To: "top", Valid: temporal.Since(start)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < leaves; i++ {
		for m := 0; m < months; m++ {
			if err := s.InsertFact(Coords{lineageLeaf(i)}, y(2003)+temporal.Instant(m), float64(i+m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func lineageLeaf(i int) MVID { return MVID(fmt.Sprintf("leaf%d", i)) }

// lineageWrite is one write of the serving tier against cur: clone,
// insert batch fresh facts (fact number w*batch onwards, at instants
// past everything lineageSchema stored), warm every mode from cur. It
// returns the next generation.
func lineageWrite(t testing.TB, cur *Schema, leaves, months, batch, w int) *Schema {
	t.Helper()
	clone := cur.Clone()
	for i := w * batch; i < (w+1)*batch; i++ {
		at := y(2003) + temporal.Instant(months+i/leaves)
		if err := clone.InsertFact(Coords{lineageLeaf(i % leaves)}, at, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	res := clone.WarmFrom(context.Background(), cur, clone.Delta())
	if len(res.Evicted) != 0 || res.DeltaApplied != len(res.Retained) {
		t.Fatalf("write %d: WarmFrom = %+v, want every mode retained with the delta folded", w, res)
	}
	return clone
}

// lineageRetract retracts the first stored fact of cur on a clone and
// warms every mode, returning the next generation.
func lineageRetract(t testing.TB, cur *Schema) *Schema {
	t.Helper()
	clone := cur.Clone()
	var f Fact
	clone.Facts().All(func(first *Fact) bool {
		f = Fact{Coords: first.Coords.Clone(), Time: first.Time}
		return false
	})
	if _, err := clone.RetractFact(f.Coords, f.Time); err != nil {
		t.Fatal(err)
	}
	res := clone.WarmFrom(context.Background(), cur, clone.Delta())
	if len(res.Evicted) != 0 || res.Subtracted != len(res.Retained) {
		t.Fatalf("retract: WarmFrom = %+v, want every mode retained by unfolding", res)
	}
	return clone
}

// TestPublishedGenerationReadWhileLineageWrites is the race-detector
// half of the index contract: a published generation — fact table and
// every mapped table — is never written by the clones taken from it.
// Readers look up and query whichever generation is current (and keep
// the first one, whose cold-built index tops are shared live) while the
// lineage ingests and retracts through enough writes to seal and merge
// index layers.
func TestPublishedGenerationReadWhileLineageWrites(t *testing.T) {
	const leaves, months, batch, writes = 60, 20, 32, 80
	first := lineageSchema(t, leaves, months)
	seals, merged := metKeyIndexSeals.Value(), metKeyIndexMerged.Value()
	var cur atomic.Pointer[Schema]
	cur.Store(first)

	q := Query{GroupBy: []GroupBy{{Dim: "Org", Level: "Division"}}, Grain: GrainYear, Mode: TCM()}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				for _, s := range []*Schema{first, cur.Load()} {
					c, at := Coords{lineageLeaf((g + i) % leaves)}, y(2003)+temporal.Instant(i%months)
					s.Facts().Lookup(c, at)
					for _, m := range s.Modes() {
						if _, err := s.Present(m, func(f *MappedFact) bool { return f.Time != at || !f.Coords.Equal(c) }); err != nil {
							t.Error(err)
							return
						}
					}
					if _, err := s.Execute(q); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}

	s := first
	for w := 0; w < writes; w++ {
		s = lineageWrite(t, s, leaves, months, batch, w)
		cur.Store(s)
		if w%4 == 3 {
			s = lineageRetract(t, s)
			cur.Store(s)
		}
	}
	close(done)
	wg.Wait()

	if metKeyIndexSeals.Value() == seals || metKeyIndexMerged.Value() == merged {
		t.Fatal("the lineage never sealed and merged an index layer; the run is too short")
	}
	// The first generation still answers from exactly what it held.
	if got, want := first.Facts().Len(), leaves*months; got != want {
		t.Fatalf("first generation holds %d facts after its lineage wrote, want %d", got, want)
	}
	f0 := first.Facts().Facts()[0]
	if _, ok := first.Facts().Lookup(f0.Coords, f0.Time); !ok {
		t.Fatal("a retraction down the lineage reached the first generation")
	}
}

// allocatedBy reports the bytes and objects fn allocated, across all
// goroutines it ran (WarmFrom folds modes concurrently).
func allocatedBy(fn func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestWriteCostIndependentOfHistory is the regression test for "O(batch)
// per record": along ONE lineage of clones — each write clones the
// previous write's clone, as the serving tier does — what a write
// allocates must not grow with the number of writes before it. It
// counts bytes, not time. Clone + 32 InsertFact + WarmFrom into every
// warm mode around write 1000 must stay within 1.5× of the same over
// the first 128 writes (the table itself grows by a third in between,
// which the pointer-slice copy legitimately pays); each side is a mean
// over one full tail-shard fill cycle of 128 writes, so the phase of
// shard privatization cancels. A retraction at the end must allocate a
// handful of objects, not an index entry per stored fact.
// retractBytesBound is what one retraction on a fresh clone may
// allocate: the columns of the one shard it privatizes to tombstone a
// slot (MappedShardSize tuples × 25 B: a 4-byte ordinal, an 8-byte
// instant, an 8-byte value, a 1-byte confidence, a 4-byte source count,
// 102 400 B) plus 16 KiB, once for the key index's top, which a
// tombstone could seal while it wrote an index entry; a retraction
// writes none now. While the fact table was a pointer list, a retract
// copied all of it, 8 B per fact and a quarter of headroom.
const retractBytesBound = MappedShardSize*25 + 16<<10

func TestWriteCostIndependentOfHistory(t *testing.T) {
	const (
		leaves, months, batch = 1000, 100, 32
		cycle                 = MappedShardSize / batch // writes per tail-shard fill
		early, late           = cycle / 2, 1000         // window centres
	)
	s := lineageSchema(t, leaves, months)
	perWrite := make([]uint64, late+cycle/2)
	for w := range perWrite {
		perWrite[w], _ = allocatedBy(func() { s = lineageWrite(t, s, leaves, months, batch, w) })
	}
	mean := func(centre int) float64 {
		var sum uint64
		for _, b := range perWrite[centre-cycle/2 : centre+cycle/2] {
			sum += b
		}
		return float64(sum) / cycle
	}
	e, l := mean(early), mean(late)
	t.Logf("bytes per write: %.0f around write %d, %.0f around write %d (%.2fx)", e, early, l, late, l/e)
	if l > 1.5*e {
		t.Errorf("a write around %d allocates %.0f bytes, %.2fx the %.0f around write %d; want within 1.5x",
			late, l, l/e, e, early)
	}

	clone := s.Clone()
	f := clone.Facts().Facts()[clone.Facts().Len()/2]
	bytes, objects := allocatedBy(func() {
		if _, err := clone.RetractFact(f.Coords, f.Time); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("retract after %d writes over %d facts: %d objects, %d bytes allocated", len(perWrite), clone.Facts().Len(), objects, bytes)
	if objects > 64 {
		t.Errorf("retract allocated %d objects over %d facts; want a constant, not a re-index", objects, clone.Facts().Len())
	}
	if bytes > retractBytesBound {
		t.Errorf("retract allocated %d bytes over %d facts; want at most %d, one privatized shard and the index top", bytes, clone.Facts().Len(), retractBytesBound)
	}
}
