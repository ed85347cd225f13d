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
	c.put(cacheKey{plan: "old"}, 1, temporal.Between(y(2001), y(2002)), oOld)
	c.put(cacheKey{plan: "hot"}, 1, temporal.Between(y(2004), y(2006)), oHot)
	c.put(cacheKey{plan: "always"}, 1, temporal.Always, oAlways)

	delta := core.Delta{FactsWindow: temporal.Between(y(2005), y(2005)), FactsWindowKnown: true}
	dropped := c.Invalidate(1, 2, delta)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (overlapping + Always)", dropped)
	}
	if out, ok := c.get(cacheKey{plan: "old"}, 2); !ok || out != oOld {
		t.Fatal("disjoint-range entry was not revalidated to the new swap identity")
	}
	if _, ok := c.get(cacheKey{plan: "hot"}, 2); ok {
		t.Fatal("entry overlapping the facts window survived")
	}
	if _, ok := c.get(cacheKey{plan: "always"}, 2); ok {
		t.Fatal("unbounded-range entry survived a facts mutation")
	}
}

// TestCacheAdditiveStructureRetainsAll: a write that neither reroutes
// nor writes a fact (a fresh levelled member with upward edges only)
// retains every entry; a rerouting one drops them all.
func TestCacheAdditiveStructureRetainsAll(t *testing.T) {
	c := NewResultCache(8)
	o := &Output{}
	c.put(cacheKey{plan: "k"}, 1, temporal.Always, o)
	if d := c.Invalidate(1, 2, core.Delta{}); d != 0 {
		t.Fatalf("dropped = %d, want 0 on additive evolve", d)
	}
	if out, ok := c.get(cacheKey{plan: "k"}, 2); !ok || out != o {
		t.Fatal("entry was not retained across an additive evolve")
	}
	if d := c.Invalidate(2, 3, core.Delta{Reroutes: true}); d != 1 {
		t.Fatalf("dropped = %d, want 1 on a rerouting evolve", d)
	}
	if _, ok := c.get(cacheKey{plan: "k"}, 3); ok {
		t.Fatal("entry survived a rerouting structural change")
	}
}

// TestCacheMappingsChangeDropsAll: a mapping-set change reroutes version
// modes globally (AddMapping sets Reroutes); nothing may survive, not
// even an entry whose range avoids the facts window.
func TestCacheMappingsChangeDropsAll(t *testing.T) {
	c := NewResultCache(8)
	c.put(cacheKey{plan: "k"}, 1, temporal.Between(y(2001), y(2001)), &Output{})
	delta := core.Delta{Reroutes: true, FactsWindow: temporal.Between(y(2005), y(2005)), FactsWindowKnown: true}
	if d := c.Invalidate(1, 2, delta); d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
	if _, ok := c.get(cacheKey{plan: "k"}, 2); ok {
		t.Fatal("entry survived a mapping change")
	}
}

// TestCacheInvalidationReasons: every dropped entry counts once, under
// its reason, in mvolap_query_cache_invalidations_total.
func TestCacheInvalidationReasons(t *testing.T) {
	reasons := []string{"reroute", "window", "generation"}
	counts := func() map[string]int64 {
		out := make(map[string]int64)
		for _, r := range reasons {
			out[r] = metCacheInvalidations.With(r).Value()
		}
		return out
	}
	before := counts()
	c := NewResultCache(8)
	c.put(cacheKey{plan: "laggard"}, 1, temporal.Between(y(2001), y(2001)), &Output{})
	c.put(cacheKey{plan: "hot"}, 2, temporal.Between(y(2005), y(2005)), &Output{})
	c.put(cacheKey{plan: "cold"}, 2, temporal.Between(y(2001), y(2001)), &Output{})
	// The 2→3 swap wrote facts in 2005: the generation-1 laggard drops
	// for its generation, hot for the window, cold is revalidated.
	if d := c.Invalidate(2, 3, core.Delta{FactsWindow: temporal.Between(y(2005), y(2005)), FactsWindowKnown: true}); d != 2 {
		t.Fatalf("dropped = %d, want 2", d)
	}
	c.put(cacheKey{plan: "fresh"}, 3, temporal.Always, &Output{})
	if d := c.Invalidate(3, 4, core.Delta{Reroutes: true}); d != 2 {
		t.Fatalf("dropped = %d, want 2", d)
	}
	after := counts()
	for r, want := range map[string]int64{"reroute": 2, "window": 1, "generation": 1} {
		if got := after[r] - before[r]; got != want {
			t.Errorf("invalidations{reason=%q} grew by %d, want %d", r, got, want)
		}
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
	c.Invalidate(1, 2, core.Delta{FactsWindow: temporal.Between(y(2005), y(2005)), FactsWindowKnown: true})
	c.put(cacheKey{plan: "laggard"}, 1, temporal.Between(y(2001), y(2001)), &Output{})
	// The 2→3 reconciliation has a window disjoint from the entry's
	// range, but the entry is from generation 1, not 2: it must drop.
	c.Invalidate(2, 3, core.Delta{FactsWindow: temporal.Between(y(2006), y(2006)), FactsWindowKnown: true})
	if _, ok := c.get(cacheKey{plan: "laggard"}, 3); ok {
		t.Fatal("stale put from an older generation was revalidated")
	}
}

// TestCacheRacedAheadEntryKept: queries don't hold the serving lock, so
// an entry computed against the *new* generation can land before the
// swap's reconciliation runs; reconciliation must keep it.
func TestCacheRacedAheadEntryKept(t *testing.T) {
	c := NewResultCache(8)
	o := &Output{}
	c.put(cacheKey{plan: "ahead"}, 2, temporal.Always, o)
	c.Invalidate(1, 2, core.Delta{FactsWindow: temporal.Between(y(2005), y(2005)), FactsWindowKnown: true})
	if out, ok := c.get(cacheKey{plan: "ahead"}, 2); !ok || out != o {
		t.Fatal("entry already on the new generation was dropped by reconciliation")
	}
}
