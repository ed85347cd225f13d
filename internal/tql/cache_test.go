package tql

import (
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

func y(n int) temporal.Instant { return temporal.Year(n) }

// TestCacheFactsWindowRetargets pins the surgical invalidation routing:
// a facts batch with a known time window drops exactly the entries
// whose effective range overlaps it and revalidates the rest onto the
// new swap identity.
func TestCacheFactsWindowRetargets(t *testing.T) {
	c := NewResultCache(8)
	oOld, oHot, oAlways := &Output{}, &Output{}, &Output{}
	c.put("old", 1, temporal.Between(y(2001), y(2002)), oOld)
	c.put("hot", 1, temporal.Between(y(2004), y(2006)), oHot)
	c.put("always", 1, temporal.Always, oAlways)

	delta := core.Delta{
		FactsReplaced:    true,
		FactsWindow:      temporal.Between(y(2005), y(2005)),
		FactsWindowKnown: true,
	}
	dropped := c.Invalidate(1, 2, delta)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (overlapping + Always)", dropped)
	}
	if out, ok := c.get("old", 2); !ok || out != oOld {
		t.Fatal("disjoint-range entry was not revalidated to the new swap identity")
	}
	if _, ok := c.get("hot", 2); ok {
		t.Fatal("entry overlapping the facts window survived")
	}
	if _, ok := c.get("always", 2); ok {
		t.Fatal("unbounded-range entry survived a facts mutation")
	}
}

// TestCacheFactsUnknownWindowDropsAll: a facts mutation whose window
// could not be established must drop everything.
func TestCacheFactsUnknownWindowDropsAll(t *testing.T) {
	c := NewResultCache(8)
	c.put("k", 1, temporal.Between(y(2001), y(2001)), &Output{})
	if d := c.Invalidate(1, 2, core.Delta{FactsReplaced: true}); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
	if _, ok := c.get("k", 2); ok {
		t.Fatal("entry survived a facts mutation with unknown window")
	}
}

// TestCacheAdditiveStructureRetainsAll: a purely additive structural
// change (fresh member, upward edges only) retains every entry; a
// non-additive one drops them all.
func TestCacheAdditiveStructureRetainsAll(t *testing.T) {
	c := NewResultCache(8)
	o := &Output{}
	c.put("k", 1, temporal.Always, o)
	d := c.Invalidate(1, 2, core.Delta{StructureChanged: true, StructureAdditive: true})
	if d != 0 {
		t.Fatalf("dropped = %d, want 0 on additive evolve", d)
	}
	if out, ok := c.get("k", 2); !ok || out != o {
		t.Fatal("entry was not retained across an additive evolve")
	}
	if d := c.Invalidate(2, 3, core.Delta{StructureChanged: true}); d != 1 {
		t.Fatalf("dropped = %d, want 1 on non-additive evolve", d)
	}
	if _, ok := c.get("k", 3); ok {
		t.Fatal("entry survived a non-additive structural change")
	}
}

// TestCacheMappingsChangeDropsAll: mapping-set changes reroute version
// modes globally; nothing may survive, additive or not.
func TestCacheMappingsChangeDropsAll(t *testing.T) {
	c := NewResultCache(8)
	c.put("k", 1, temporal.Between(y(2001), y(2001)), &Output{})
	delta := core.Delta{MappingsChanged: true, StructureChanged: true, StructureAdditive: true}
	if d := c.Invalidate(1, 2, delta); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
	if _, ok := c.get("k", 2); ok {
		t.Fatal("entry survived a mapping change")
	}
}

// TestCacheStalePutNeverRevalidated is the generation-safety property:
// a put computed against generation N that lands after the N→N+1 swap
// must not be revalidated by the N+1→N+2 reconciliation — it was never
// reconciled against the N→N+1 mutation.
func TestCacheStalePutNeverRevalidated(t *testing.T) {
	c := NewResultCache(8)
	// Swap 1→2 happens first; the laggard put from generation 1 lands
	// after it.
	c.Invalidate(1, 2, core.Delta{FactsReplaced: true, FactsWindow: temporal.Between(y(2005), y(2005)), FactsWindowKnown: true})
	c.put("laggard", 1, temporal.Between(y(2001), y(2001)), &Output{})
	// The 2→3 reconciliation has a window disjoint from the entry's
	// range, but the entry is from generation 1, not 2: it must drop.
	c.Invalidate(2, 3, core.Delta{FactsReplaced: true, FactsWindow: temporal.Between(y(2006), y(2006)), FactsWindowKnown: true})
	if _, ok := c.get("laggard", 3); ok {
		t.Fatal("stale put from an older generation was revalidated")
	}
}

// TestCacheRacedAheadEntryKept: queries don't hold the serving lock, so
// an entry computed against the *new* generation can land before the
// swap's reconciliation runs; reconciliation must keep it.
func TestCacheRacedAheadEntryKept(t *testing.T) {
	c := NewResultCache(8)
	o := &Output{}
	c.put("ahead", 2, temporal.Always, o)
	c.Invalidate(1, 2, core.Delta{FactsReplaced: true, FactsWindow: temporal.Between(y(2005), y(2005)), FactsWindowKnown: true})
	if out, ok := c.get("ahead", 2); !ok || out != o {
		t.Fatal("entry already on the new generation was dropped by reconciliation")
	}
}
