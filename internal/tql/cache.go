package tql

import (
	"container/list"
	"fmt"
	"sync"

	"mvolap/internal/core"
	"mvolap/internal/obs"
	"mvolap/internal/quality"
	"mvolap/internal/temporal"
)

// Result-cache metrics, served by internal/server at GET /metrics and
// documented in docs/observability.md.
var (
	metCacheHits = obs.Default().Counter(
		"mvolap_query_cache_hits_total",
		"SELECT statements served from the TQL result cache with zero scan.")
	metCacheMisses = obs.Default().Counter(
		"mvolap_query_cache_misses_total",
		"Cacheable SELECT statements that had to execute a scan.")
	metCacheEvictions = obs.Default().Counter(
		"mvolap_query_cache_evictions_total",
		"Result-cache entries dropped by the LRU bound.")
	metCacheInvalidations = obs.Default().Counter(
		"mvolap_query_cache_invalidations_total",
		"Result-cache entries dropped because a mutation could affect them.")
	metCacheRetained = obs.Default().Counter(
		"mvolap_query_cache_retained_total",
		"Result-cache entries revalidated across a facts append whose time window their query range provably cannot see.")
)

// ResultCache is a bounded LRU cache of frozen SELECT outputs, keyed by
// the structure-aware cache key (see cacheKey): the statement's
// canonical text, the resolved mode and its structural signature, and
// the confidence weights. Validity is anchored on the served schema's
// swap identity, carried by each entry: the serving tier mutates
// exclusively by clone-then-swap (every write, on the leader and on a
// follower, installs a fresh clone with a fresh SwapID), and a
// lookup hits only when the entry's swapID matches the serving
// schema's, so entries are never served across a mutation they could
// observe.
//
// The swap path routes through Invalidate with the mutation's
// core.Delta. Structural or mapping changes — and fact batches that
// replaced existing coordinates — drop everything, as before. The hot
// mutation, an insert-only facts append, is handled surgically: the
// appended facts form a time window, and a cached SELECT whose
// effective time range does not overlap that window scans exactly the
// tuples it scanned before (appends only extend the fact table's
// tail), so its output is byte-identical — the entry is revalidated to
// the new swap identity instead of dropped. Queries without a WHERE
// TIME range have effective range temporal.Always and always drop.
//
// Cached outputs are shared and must be treated as frozen by every
// reader, which holds for the serving tier: results are rendered, never
// mutated.
type ResultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
}

type cacheEntry struct {
	key    string
	swapID uint64
	// rng is the query's effective time range (temporal.Always when
	// the statement had no WHERE TIME clause), the exact filter the
	// scan applied to fact times — the overlap test for revalidating
	// across insert-only facts appends.
	rng temporal.Interval
	out *Output
}

// NewResultCache returns a cache bounded to max entries; max <= 0
// disables caching (every lookup misses, puts are dropped).
func NewResultCache(max int) *ResultCache {
	return &ResultCache{
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// Len reports the live entry count.
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// get returns the cached output for key if it was computed against the
// given schema swap identity. A stale entry (a put that raced with a
// swap) is removed on sight.
func (c *ResultCache) get(key string, swapID uint64) (*Output, bool) {
	if c == nil || c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.swapID != swapID {
		c.lru.Remove(el)
		delete(c.entries, key)
		return nil, false
	}
	c.lru.MoveToFront(el)
	return ent.out, true
}

func (c *ResultCache) put(key string, swapID uint64, rng temporal.Interval, out *Output) {
	if c == nil || c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.swapID, ent.rng, ent.out = swapID, rng, out
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, swapID: swapID, rng: rng, out: out})
	for len(c.entries) > c.max {
		el := c.lru.Back()
		ent := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.entries, ent.key)
		metCacheEvictions.Inc()
	}
}

// Invalidate reconciles the cache with one clone swap, described by
// the delta that produced the accepted clone (swapID is that clone's
// swap identity), in one pass over the entries. Returns the number of
// entries dropped.
//
// An entry already computed on the new generation (a query raced ahead
// of this reconciliation) is kept as-is. An entry of the replaced
// generation, prevSwapID, is revalidated to swapID when the delta
// provably leaves its result byte-identical, and dropped otherwise; an
// entry of an older generation has mutations between its generation
// and this one that were never reconciled against it, and drops.
// Routing, from the byte-identity arguments on the Delta fields:
//   - A mapping change, or a structural change that is not purely
//     additive, can reroute any rollup — nothing is revalidated.
//   - A facts batch with a known time window (appends, replacements
//     and retractions alike only change values at their own instants)
//     revalidates the entries whose time range avoids the window.
//   - A purely additive structural change with no facts side touches
//     no existing rollup path — everything is revalidated.
//   - Anything else (unknown window, conservative deltas) revalidates
//     nothing.
func (c *ResultCache) Invalidate(prevSwapID, swapID uint64, delta core.Delta) int {
	if c == nil {
		return 0
	}
	factsTouched := delta.FactsReplaced || len(delta.NewFacts) > 0 || len(delta.Retracted) > 0
	retarget := !delta.MappingsChanged && (!delta.StructureChanged || delta.StructureAdditive) &&
		(!factsTouched || delta.FactsWindowKnown)
	window := temporal.Interval{Start: 1, End: 0} // empty: overlaps nothing
	if factsTouched {
		window = delta.FactsWindow
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped, retained := 0, 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*cacheEntry)
		switch {
		case ent.swapID == swapID:
		case retarget && ent.swapID == prevSwapID && !ent.rng.Overlaps(window):
			ent.swapID = swapID
			retained++
		default:
			c.lru.Remove(el)
			delete(c.entries, ent.key)
			dropped++
		}
		el = next
	}
	if dropped > 0 {
		metCacheInvalidations.Add(int64(dropped))
	}
	if retained > 0 {
		metCacheRetained.Add(int64(retained))
	}
	return dropped
}

// cacheKey builds the structure-aware cache key for a planned SELECT.
// The canonical text collapses syntactic variants; the resolved mode
// plus its structural signature bind the entry to the exact structure
// it was computed in; the weights cover the quality factor baked into
// the output. Swap identity is deliberately NOT part of the key: it
// lives on the entry, so an insert-only facts append can revalidate
// surviving entries in place (Invalidate) and repeated queries keep
// hitting the same key across appends.
func cacheKey(st *Statement, mode core.Mode, w quality.Weights) string {
	sig := ""
	if mode.Kind == core.VersionKind && mode.Version != nil {
		sig = mode.Version.Signature()
	}
	return fmt.Sprintf("%s\x00%s\x00%s\x00%d/%d/%d/%d",
		st.Canonical(), mode, sig, w[0], w[1], w[2], w[3])
}
