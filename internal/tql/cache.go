package tql

import (
	"container/list"
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
		"Result-cache probes answered with zero scan: one per SELECT, and one per mode of a QUALITY ranking.")
	metCacheMisses = obs.Default().Counter(
		"mvolap_query_cache_misses_total",
		"Result-cache probes that had to execute a scan: one per SELECT, and one per mode of a QUALITY ranking.")
	metCacheEvictions = obs.Default().Counter(
		"mvolap_query_cache_evictions_total",
		"Result-cache entries dropped by the LRU bound.")
	metCacheInvalidations = obs.Default().CounterVec(
		"mvolap_query_cache_invalidations_total",
		"Result-cache entries dropped because a mutation could affect them, by reason: reroute (the write could reroute a rollup), window (the entry's time range meets the facts the write touched), generation (the entry is of an older swap, never reconciled).",
		"reason")
	metCacheRetained = obs.Default().Counter(
		"mvolap_query_cache_retained_total",
		"Result-cache entries revalidated across a write that provably cannot affect them: it does not reroute, and their time range avoids its facts window.")
)

// ResultCache is a bounded LRU cache of frozen SELECT outputs, keyed by
// the planned query's canonical form and the confidence weights (see
// cacheKey). Validity is anchored on the served schema's
// swap identity, carried by each entry: the serving tier mutates
// exclusively by clone-then-swap (every write, on the leader and on a
// follower, installs a fresh clone with a fresh SwapID), and a
// lookup hits only when the entry's swapID matches the serving
// schema's, so entries are never served across a mutation they could
// observe.
//
// The swap path routes through Invalidate with the mutation's
// core.Delta, read off the clone. A write that can reroute a rollup
// drops everything. Any other write is handled surgically: the facts it
// inserted, replaced or retracted form a time window, and a cached
// SELECT whose effective time range does not overlap that window reads
// exactly the values it read before, so its output is byte-identical —
// the entry is revalidated to the new swap identity instead of dropped.
// Queries without a WHERE TIME range have effective range
// temporal.Always and drop whenever a fact was written.
//
// Cached outputs are shared and must be treated as frozen by every
// reader, which holds for the serving tier: results are rendered, never
// mutated.
type ResultCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recently used
}

type cacheEntry struct {
	key    cacheKey
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
		entries: make(map[cacheKey]*list.Element),
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
func (c *ResultCache) get(key cacheKey, swapID uint64) (*Output, bool) {
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

func (c *ResultCache) put(key cacheKey, swapID uint64, rng temporal.Interval, out *Output) {
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
// of this reconciliation) is kept as-is. An entry of an older
// generation than the replaced one, prevSwapID, has mutations between
// its generation and this one that were never reconciled against it,
// and drops. An entry of the replaced generation drops when the delta
// reroutes, or when its time range meets the delta's facts window; it
// is revalidated to swapID otherwise. Each drop counts under its reason
// in mvolap_query_cache_invalidations_total.
func (c *ResultCache) Invalidate(prevSwapID, swapID uint64, delta core.Delta) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped, retained := map[string]int64{}, 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*cacheEntry)
		reason := ""
		switch {
		case ent.swapID == swapID:
		case ent.swapID != prevSwapID:
			reason = "generation"
		case delta.Reroutes:
			reason = "reroute"
		case delta.FactsWindowKnown && ent.rng.Overlaps(delta.FactsWindow):
			reason = "window"
		default:
			ent.swapID = swapID
			retained++
		}
		if reason != "" {
			c.lru.Remove(el)
			delete(c.entries, ent.key)
			dropped[reason]++
		}
		el = next
	}
	n := 0
	for reason, k := range dropped {
		metCacheInvalidations.With(reason).Add(k)
		n += int(k)
	}
	if retained > 0 {
		metCacheRetained.Add(int64(retained))
	}
	return n
}

// cacheKey is a result-cache key: the plan's canonical form
// (core.Query.Key), which binds an entry to the exact structure its
// mode presents, and the confidence weights behind the quality factor
// baked into the output. Swap identity is deliberately NOT part of the
// key: it lives on the entry, so an insert-only facts append can
// revalidate surviving entries in place (Invalidate) and repeated
// queries keep hitting the same key across appends.
type cacheKey struct {
	plan string
	w    quality.Weights
}
