package core

import (
	"context"
	"math"
	"testing"
)

// TestUnfoldPair pins the invertibility rules measure by measure: when
// a contribution can be taken back out of a folded cell exactly, and
// when the fold must refuse (ok=false → per-mode eviction).
func TestUnfoldPair(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name     string
		kind     AggKind
		x        float64
		avgc     int32
		v        float64
		wantV    float64
		wantC    int32
		wantOK   bool
		wantNaNV bool
	}{
		// Sum: subtraction, except where a non-NaN survivor cannot be proven.
		{name: "sum subtract", kind: Sum, x: 30, v: 20, wantV: 10, wantOK: true},
		{name: "sum nan contribution is a no-op", kind: Sum, x: 30, v: nan, wantV: 30, wantOK: true},
		{name: "sum nan cell refuses", kind: Sum, x: nan, v: 5, wantOK: false},
		{name: "sum equal value refuses", kind: Sum, x: 20, v: 20, wantOK: false},
		{name: "sum negative contribution", kind: Sum, x: 10, v: -5, wantV: 15, wantOK: true},

		// Count: NaN folding resets the total to 1, so any NaN
		// involvement — or the ambiguous value 1 itself — refuses.
		{name: "count subtract", kind: Count, x: 3, v: 1, wantV: 2, wantOK: true},
		{name: "count nan contribution refuses", kind: Count, x: 3, v: nan, wantOK: false},
		{name: "count nan cell refuses", kind: Count, x: nan, v: 1, wantOK: false},
		{name: "count at reset value refuses", kind: Count, x: 1, v: 1, wantOK: false},
		{name: "count equal value refuses", kind: Count, x: 2, v: 2, wantOK: false},

		// Avg: contribution counts make the mean invertible.
		{name: "avg subtract", kind: Avg, x: 5, avgc: 2, v: 6, wantV: 4, wantC: 1, wantOK: true},
		{name: "avg nan contribution is a no-op", kind: Avg, x: 5, avgc: 2, v: nan, wantV: 5, wantC: 2, wantOK: true},
		{name: "avg nan cell refuses", kind: Avg, x: nan, avgc: 0, v: 3, wantOK: false},
		{name: "avg zero count refuses", kind: Avg, x: 5, avgc: 0, v: 5, wantOK: false},
		{name: "avg last contribution reverts to absent", kind: Avg, x: 6, avgc: 1, v: 6, wantC: 0, wantOK: true, wantNaNV: true},
		{name: "avg last contribution mismatch refuses", kind: Avg, x: 6, avgc: 1, v: 7, wantOK: false},

		// Min/Max: folding is lossy, never invertible.
		{name: "min refuses", kind: Min, x: 3, v: 5, wantOK: false},
		{name: "max refuses", kind: Max, x: 5, v: 3, wantOK: false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			gotV, gotC, ok := unfoldPair(c.kind, c.x, c.avgc, c.v)
			if ok != c.wantOK {
				t.Fatalf("ok = %v, want %v", ok, c.wantOK)
			}
			if !ok {
				return // cell state is discarded on refusal
			}
			if c.wantNaNV {
				if !math.IsNaN(gotV) {
					t.Fatalf("value = %v, want NaN", gotV)
				}
			} else if gotV != c.wantV {
				t.Fatalf("value = %v, want %v", gotV, c.wantV)
			}
			if gotC != c.wantC {
				t.Fatalf("count = %d, want %d", gotC, c.wantC)
			}
		})
	}
}

// TestUnfoldInvertsFold is the algebraic property behind the fast
// path: for integer-valued contributions (exact float64 arithmetic),
// unfoldPair(fold(x, v), v) returns x bit-for-bit for every invertible
// aggregate.
func TestUnfoldInvertsFold(t *testing.T) {
	for x := float64(2); x < 40; x += 3 {
		for v := float64(1); v < 30; v += 2 {
			if got := foldPair(Sum, x, v); true {
				back, _, ok := unfoldPair(Sum, got, 0, v)
				if !ok || math.Float64bits(back) != math.Float64bits(x) {
					t.Fatalf("sum: unfold(fold(%v,%v)) = %v, %v", x, v, back, ok)
				}
			}
			mean, n := foldAvg(x, 1, v)
			back, c, ok := unfoldPair(Avg, mean, n, v)
			if !ok || c != 1 || math.Float64bits(back) != math.Float64bits(x) {
				t.Fatalf("avg: unfold(fold(%v,%v)) = %v n=%d, %v", x, v, back, c, ok)
			}
		}
	}
}

// TestFactTableRetract covers the source-of-truth side: retraction
// removes exactly the addressed tuple, preserves the order of the
// survivors, stays lookup-consistent, and misses report an error
// without mutating anything.
func TestFactTableRetract(t *testing.T) {
	s := orgSchema(t)
	for _, f := range []struct {
		id  MVID
		yr  int
		amt float64
	}{
		{"Smith", 2001, 50}, {"Brian", 2001, 100}, {"Smith", 2002, 70},
	} {
		if err := s.InsertFact(Coords{f.id}, y(f.yr), f.amt); err != nil {
			t.Fatal(err)
		}
	}

	// Miss: unknown coordinates and wrong instants change nothing.
	if _, err := s.RetractFact(Coords{"Smith"}, y(2005)); err == nil {
		t.Fatal("retracting a nonexistent tuple must fail")
	}
	if _, err := s.RetractFact(Coords{"zzz"}, y(2001)); err == nil {
		t.Fatal("retracting unknown coordinates must fail")
	}
	if s.Facts().Len() != 3 {
		t.Fatalf("failed retraction mutated the table: %d facts", s.Facts().Len())
	}

	old, err := s.RetractFact(Coords{"Brian"}, y(2001))
	if err != nil {
		t.Fatal(err)
	}
	if old.Values[0] != 100 {
		t.Fatalf("retraction returned %+v, want the old tuple", old)
	}
	facts := s.Facts().Facts()
	if len(facts) != 2 {
		t.Fatalf("%d facts after retraction, want 2", len(facts))
	}
	if !facts[0].Coords.Equal(Coords{"Smith"}) || facts[0].Time != y(2001) ||
		!facts[1].Coords.Equal(Coords{"Smith"}) || facts[1].Time != y(2002) {
		t.Fatalf("survivor order broken: %v", facts)
	}
	if _, ok := s.Facts().Lookup(Coords{"Brian"}, y(2001)); ok {
		t.Fatal("retracted tuple still resolvable")
	}
	if vals, ok := s.Facts().Lookup(Coords{"Smith"}, y(2002)); !ok || vals[0] != 70 {
		t.Fatal("survivor lookup broken after reindex")
	}

	// Re-inserting the retracted coordinates is an append, not a merge.
	if err := s.InsertFact(Coords{"Brian"}, y(2001), 33); err != nil {
		t.Fatal(err)
	}
	if vals, ok := s.Facts().Lookup(Coords{"Brian"}, y(2001)); !ok || vals[0] != 33 {
		t.Fatal("re-insert after retraction broken")
	}
}

// TestRetractFromClone pins the copy-on-write contract: retracting on
// a clone must leave the source table untouched, including its index.
func TestRetractFromClone(t *testing.T) {
	s := orgSchema(t)
	if err := s.InsertFact(Coords{"Smith"}, y(2001), 50); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertFact(Coords{"Brian"}, y(2001), 100); err != nil {
		t.Fatal(err)
	}
	clone := s.Clone()
	if _, err := clone.RetractFact(Coords{"Smith"}, y(2001)); err != nil {
		t.Fatal(err)
	}
	if clone.Facts().Len() != 1 {
		t.Fatalf("clone has %d facts, want 1", clone.Facts().Len())
	}
	if s.Facts().Len() != 2 {
		t.Fatalf("retraction on the clone leaked into the source: %d facts", s.Facts().Len())
	}
	if _, ok := s.Facts().Lookup(Coords{"Smith"}, y(2001)); !ok {
		t.Fatal("source lost the retracted tuple")
	}
}

// TestTombstoneZoneRebuild: tombstoning every tuple of a shard must
// leave its zone map empty — pruned by every scan — and a partially
// tombstoned shard's zone must shrink to the survivors' envelope.
func TestTombstoneZoneRebuild(t *testing.T) {
	s := orgSchema(t)
	if err := s.InsertFact(Coords{"Smith"}, y(2001), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertFact(Coords{"Smith"}, y(2002), 2); err != nil {
		t.Fatal(err)
	}
	mt, err := s.MultiVersion().Mode(TCM())
	if err != nil {
		t.Fatal(err)
	}
	out := mt.cloneForWarm(s, TCM())
	if !s.retractInto(context.Background(), out, TCM(), []*Fact{s.Facts().Facts()[1]}) {
		t.Fatal("tcm retraction must always be absorbable")
	}
	if out.Len() != 1 {
		t.Fatalf("Len = %d after tombstone, want 1", out.Len())
	}
	sh := out.shards[0]
	z := sh.zone.Load()
	if z == nil {
		t.Fatal("touched shard was not re-sealed")
	}
	if z.minTime != y(2001) || z.maxTime != y(2001) {
		t.Fatalf("zone envelope [%v, %v], want the survivor's instant", z.minTime, z.maxTime)
	}
	// Tombstone the survivor too: the zone must become empty.
	if !s.retractInto(context.Background(), out, TCM(), []*Fact{s.Facts().Facts()[0]}) {
		t.Fatal("second tcm retraction refused")
	}
	if out.Len() != 0 {
		t.Fatalf("Len = %d, want 0", out.Len())
	}
	z = sh.zone.Load()
	if z == nil || z.minTime <= z.maxTime {
		t.Fatalf("fully tombstoned shard zone = %+v, want empty envelope", z)
	}
}
