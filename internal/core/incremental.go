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
