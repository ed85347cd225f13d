package evolution

import (
	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

// ApplyTouched is Apply returning the applier's schema as a TouchSet.
//
// Deprecated: call Apply and read core.Schema.Delta on the schema.
// ApplyTouched stays for the benchmark module's serial replay and goes
// with it (ROADMAP item 2).
func (a *Applier) ApplyTouched(ops ...Op) (TouchSet, error) {
	return TouchSet{a.schema}, a.Apply(ops...)
}

// TouchSet is what ApplyTouched returns: the applier's schema, whose
// Delta says what the batch changed.
//
// Deprecated: read core.Schema.Delta on the schema the batch was
// applied to. TouchSet stays for the benchmark module's serial replay
// and goes with it (ROADMAP item 2).
type TouchSet struct{ s *core.Schema }

// Delta returns the schema's Delta; the zero TouchSet has none.
//
// Deprecated: read core.Schema.Delta (see TouchSet).
func (ts TouchSet) Delta() core.Delta {
	if ts.s == nil {
		return core.Delta{}
	}
	return ts.s.Delta()
}

// WithRetraction returns the Delta with the hull of the retracted
// tuples' instants as its facts window.
//
// Deprecated: the fact table records the instants a retraction writes;
// read core.Schema.Delta on the clone (see TouchSet).
func (ts TouchSet) WithRetraction(retracted []*core.Fact) core.Delta {
	d := ts.Delta()
	for _, f := range retracted {
		iv := temporal.Between(f.Time, f.Time)
		if d.FactsWindowKnown {
			iv = d.FactsWindow.Hull(iv)
		}
		d.FactsWindow, d.FactsWindowKnown = iv, true
	}
	return d
}
