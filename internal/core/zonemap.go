package core

import (
	"slices"

	"mvolap/internal/temporal"
)

// zoneDistinctCap bounds the per-dimension distinct-coordinate set kept
// in a shard zone map. A shard touching more distinct members than
// this keeps no set for the dimension, and dice pruning scans it.
const zoneDistinctCap = 32

// shardZone is the zone map of one factShard: the min/max fact instant
// and, per dimension, the sorted distinct member version ordinals of
// the live tuples — nil once the shard exceeds zoneDistinctCap of them.
// A zone describes the shard's coordinates and instants and its live
// bitmap: an append drops it (FactTable.appendColumns clears the
// pointer and re-seals a full shard), and so does a tombstone; the next
// scan rebuilds it (zoneMap).
//
// The query scan consults zones to skip shards that cannot contain a
// tuple passing the query's time window or its prunable dice filters.
type shardZone struct {
	minTime, maxTime temporal.Instant
	distinct         [][]int32
}

// buildZone computes the zone map over the first n tuples of the shard
// columns, skipping tombstoned slots so a retraction
// tightens the envelope instead of pinning it to dead coordinates. nd
// is the coordinate width.
func buildZone(sh *factShard, nd int) *shardZone {
	first := -1
	for i := 0; i < sh.n; i++ {
		if sh.isLive(i) {
			first = i
			break
		}
	}
	if first < 0 {
		// Empty (or fully tombstoned) shard: an impossible envelope, so
		// time pruning always skips it.
		return &shardZone{minTime: temporal.Now, maxTime: temporal.Origin}
	}
	z := &shardZone{
		minTime:  sh.at(first),
		maxTime:  sh.at(first),
		distinct: make([][]int32, nd),
	}
	for i := first; i < sh.n; i++ {
		if !sh.isLive(i) {
			continue
		}
		t := sh.at(i)
		if t < z.minTime {
			z.minTime = t
		}
		if t > z.maxTime {
			z.maxTime = t
		}
	}
	for d := 0; d < nd; d++ {
		set := make([]int32, 0, zoneDistinctCap+1)
		for i := first; i < sh.n && set != nil; i++ {
			if !sh.isLive(i) {
				continue
			}
			ord := sh.coords[i*nd+d]
			if !slices.Contains(set, ord) {
				if set = append(set, ord); len(set) > zoneDistinctCap {
					set = nil
				}
			}
		}
		slices.Sort(set)
		z.distinct[d] = set
	}
	return z
}

// zoneMap returns the shard's zone, building and caching it when
// absent. Safe on published (read-only) shards: a concurrent duplicate
// build stores an identical zone. Shards still receiving appends or
// tombstones carry a nil cached zone (cleared by appendColumns and
// tombstone) and are rebuilt on the first scan after the write.
func (sh *factShard) zoneMap(nd int) *shardZone {
	if z := sh.zone.Load(); z != nil {
		return z
	}
	z := buildZone(sh, nd)
	sh.zone.Store(z)
	return z
}

// overlapsTime reports whether any tuple instant in the zone can lie in
// the query range.
func (z *shardZone) overlapsTime(rng temporal.Interval) bool {
	return z.minTime <= rng.End && rng.Start <= z.maxTime
}
