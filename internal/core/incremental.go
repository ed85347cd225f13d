package core

import (
	"context"

	"mvolap/internal/temporal"
)

// Delta describes what one accepted mutation batch changed between a
// base schema and its evolved clone, precisely enough for the result
// cache above the engine to decide, per cached answer, between keeping
// it and dropping it. The engine itself needs none of it: a mode is
// presented from the fact store at query time, so a write leaves no
// mode behind to maintain.
type Delta struct {
	// NewFacts is the suffix of the clone's fact table appended by the
	// batch, in insertion order (FactTable.Since).
	NewFacts []*Fact
	// Retracted lists the old tuples a retract batch removed from the
	// fact table, in batch order.
	Retracted []*Fact
	// FactsReplaced reports that the batch overwrote values at existing
	// coordinates (FactTable.Insert replaces — the fact table is a
	// function).
	FactsReplaced bool
	// FactsWindow, when FactsWindowKnown, is the hull of the instants
	// of every fact the batch inserted or replaced. Whether a tuple was
	// appended or overwritten, only its own instant's value changed, so
	// a query result computed over a time range disjoint from this
	// window is byte-identical before and after the batch — the TQL
	// result cache revalidates such entries instead of dropping them.
	FactsWindow      temporal.Interval
	FactsWindowKnown bool
	// StructureAdditive reports that every structural mutation in the
	// batch only created fresh member versions with relationships up to
	// their parents — nothing pre-existing was modified, ended, or
	// given a new child-to-parent edge. No already-stored fact can roll
	// up through a freshly created member (its coordinates predate it,
	// and upward paths from them were not extended), so query results
	// computed before the batch are byte-identical after it.
	StructureAdditive bool
	// StructureChanged reports that any dimension was mutated in place
	// (evolution operators).
	StructureChanged bool
	// MappingsChanged reports that the set of mapping relationships
	// changed (Associate). The mapping graph is global — resolution may
	// route through any relationship — so every version-mode answer may
	// change; tcm does not use the graph.
	MappingsChanged bool
	// DimsTouched lists the dimensions the batch mutated, for
	// observability.
	DimsTouched []DimID
}

// WarmResult reports what WarmFrom did.
//
// Deprecated: a mode has no warm state, so WarmFrom carries nothing and
// every field is zero. It stays for the benchmark module's serial
// replay and goes with it (ROADMAP item 2).
type WarmResult struct {
	Retained     []string
	Evicted      []string
	DeltaApplied int
	Subtracted   int
	Sealed       int
	Merged       int
}

// WarmFrom used to carry base's materialized modes across a clone-swap
// with the delta folded in. A version mode is now a set of resolution
// tables over the one fact store, so there is nothing to carry: it
// returns an empty WarmResult and touches neither schema.
//
// Deprecated: nothing in the engine calls it; only the benchmark
// module's serial replay does, and it goes with that replay (ROADMAP
// item 2).
func (s *Schema) WarmFrom(context.Context, *Schema, Delta) WarmResult { return WarmResult{} }

// clone returns a copy-on-write clone of a table for a new generation,
// rebound to the schema's algebra, measures and dimensions (which hold
// every version the source's ordinals name). The clone shares the
// source's list of shard headers until its first write copies it —
// never the tuples — and takes a fresh epoch, so every inherited shard
// is shared: an append borrows the partial tail
// (MappedTable.tailShard), a write into a shared slot privatizes its
// shard (MappedTable.writableShard).
func (mt *MappedTable) clone(s *Schema) *MappedTable {
	out := &MappedTable{
		Mode:   mt.Mode,
		shards: mt.shards,
		// The source's own writes, if any, copy the list as well (see
		// FactTable.clone).
		shardsShared: true,
		n:            mt.n,
		dead:         mt.dead,
		ords:         mt.ords,
		ordShared:    true,
		epoch:        shardEpochCounter.Add(1),
		nd:           mt.nd,
		nm:           mt.nm,
		dims:         s.dims,
		Dropped:      mt.Dropped,
		alg:          s.alg,
		measures:     s.measures,
		hasAvg:       mt.hasAvg,
		// Published tables are never written again, so even the live top
		// of a cold-built source can be shared (keyIndex.clone).
		index: mt.index.clone(mt.n),
	}
	metShardsShared.Add(int64(len(mt.shards)))
	return out
}
