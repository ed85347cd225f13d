package core

import "mvolap/internal/temporal"

// FactsSpan returns the hull of the facts' instants and whether the
// slice was non-empty — the time window a retraction batch can affect,
// handed to the TQL result-cache invalidator.
func FactsSpan(facts []*Fact) (temporal.Interval, bool) {
	if len(facts) == 0 {
		return temporal.Interval{}, false
	}
	window := temporal.Between(facts[0].Time, facts[0].Time)
	for _, f := range facts[1:] {
		window = window.Hull(temporal.Between(f.Time, f.Time))
	}
	return window, true
}

// tombstone kills the tuple at global position pos: the slot stays in
// place (positional indexing over fixed-size shards must never shift)
// but its sources count drops to zero, every view and scan skips it,
// and its key leaves the index so a later emission on the same
// coordinates appends a fresh tuple.
func (mt *MappedTable) tombstone(pos int) {
	j := pos & shardMask
	sh := mt.writableShard(pos>>shardShift, j)
	sh.sources[j] = 0
	mt.dead++
	mt.countOrds(sh.coords[j*mt.nd:(j+1)*mt.nd], sh.times[j], -1)
	mt.index.delete(tupleKey(sh.coords[j*mt.nd:(j+1)*mt.nd], sh.times[j]), pos)
}
