package core

import (
	"context"

	"mvolap/internal/temporal"
)

// Delta is what a write changed between a schema and the clone it was
// written to, precisely enough for the result cache above the engine to
// decide, per cached answer, between keeping it and dropping it. It is
// read off the clone (Schema.Delta), never declared by the writer: the
// mutators record it as they run. The engine itself needs none of it:
// a mode is presented from the fact store at query time, so a write
// leaves no mode behind to maintain.
type Delta struct {
	// Reroutes reports that a stored fact's rollup or resolution may
	// have changed: a member version or relationship was ended
	// (Dimension.SetEnd, EndRelationship), an edge was added up from a
	// member version the schema held before the clone, an unlevelled
	// member version was added (Definition 4's derived levels may
	// rename every level), or the mapping set or the ⊗cf algebra
	// changed (the mapping graph is global). Adding a levelled member
	// version, and edges up from versions created since the clone, leave
	// it clear: no stored fact holds such a version, so every answer
	// computed before the write is byte-identical after it unless a fact
	// was written too.
	Reroutes bool
	// FactsWindow, when FactsWindowKnown, is the hull of the instants of
	// every fact the write inserted, replaced or retracted; without
	// FactsWindowKnown no fact was written. Each only changes the value
	// at its own instant, so an answer computed over a time range
	// disjoint from this window is byte-identical before and after the
	// write.
	FactsWindow      temporal.Interval
	FactsWindowKnown bool

	// NewFacts is a facts batch's appended suffix, as a caller saw it.
	//
	// Deprecated: nothing reads it; only the benchmark module's serial
	// replay still fills it in, and it goes with that replay (ROADMAP
	// item 2).
	NewFacts []*Fact
	// FactsReplaced reports, as a caller saw it, that a facts batch
	// replaced values.
	//
	// Deprecated: nothing reads it; only the benchmark module's serial
	// replay still sets it, and it goes with that replay (ROADMAP item
	// 2).
	FactsReplaced bool
}

// Delta reports what was written to the schema since Clone made it (or
// NewSchema, for a schema built from nothing): Reroutes as the
// dimension mutators, AddMapping and SetConfidenceAlgebra recorded it,
// and the hull of the instants the fact table wrote. It is the one
// place a write's footprint is derived.
func (s *Schema) Delta() Delta {
	return Delta{Reroutes: s.reroutes, FactsWindow: s.facts.written, FactsWindowKnown: s.facts.wrote}
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
