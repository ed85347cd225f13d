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
