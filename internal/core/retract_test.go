package core

import "testing"

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

// TestTombstoneZoneRebuild: a tombstone drops its shard's zone map,
// and the next scan rebuilds it from the live tuples alone, so the dead
// tuple is out of it: a partially tombstoned shard's zone shrinks to
// the survivors' envelope, and a fully tombstoned one's is empty,
// pruned by every scan. The table is two full shards and a tail of
// three, so that no retraction here compacts it.
func TestTombstoneZoneRebuild(t *testing.T) {
	const n = 2*MappedShardSize + 3
	s := bigTCMSchema(t, n)
	out := s.Facts()
	facts := out.Facts()
	sh := out.shards[2]
	retract := func(f *Fact) {
		t.Helper()
		if _, err := s.RetractFact(f.Coords, f.Time); err != nil {
			t.Fatal(err)
		}
		if sh.zone.Load() != nil {
			t.Fatalf("the tombstone of %v@%v kept its shard's zone", f.Coords, f.Time)
		}
	}
	scan := func() *shardZone {
		t.Helper()
		if _, err := s.Execute(Query{GroupBy: []GroupBy{{Dim: "Org", Level: "Department"}}, Mode: TCM()}); err != nil {
			t.Fatal(err)
		}
		return sh.zone.Load()
	}
	if z := scan(); z == nil || z.maxTime != facts[n-1].Time {
		t.Fatalf("tail zone %+v, want one reaching %v", z, facts[n-1].Time)
	}
	retract(facts[n-1])
	if out.Len() != n-1 || out.n != n {
		t.Fatalf("Len = %d in %d slots after a tombstone, want %d in %d", out.Len(), out.n, n-1, n)
	}
	if z := scan(); z == nil || z.minTime != facts[n-2].Time || z.maxTime != facts[n-2].Time {
		t.Fatalf("zone after the scan = %+v, want the survivors' instant %v", z, facts[n-2].Time)
	}
	// Tombstone the survivors too: the zone must become empty.
	retract(facts[n-2])
	retract(facts[n-3])
	if out.Len() != n-3 {
		t.Fatalf("Len = %d, want %d", out.Len(), n-3)
	}
	if z := scan(); z == nil || z.minTime <= z.maxTime {
		t.Fatalf("fully tombstoned shard zone = %+v, want empty envelope", z)
	}
}
