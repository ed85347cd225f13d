package evolution

import (
	"sort"

	"mvolap/internal/core"
)

// StructureToucher is an optional Op refinement: operators that mutate
// dimension structure report which dimensions they touch, so the
// serving tier can invalidate MVFT caches structure-aware instead of
// wholesale. The four basic operators all implement it.
type StructureToucher interface {
	// TouchedDims lists the dimensions the operator mutates
	// structurally (member versions or temporal relationships).
	TouchedDims() []core.DimID
}

// MappingToucher is an optional Op refinement: operators that change
// the schema's mapping-relationship set report it, because the mapping
// graph is global — a changed set can reroute resolution in every
// version mode.
type MappingToucher interface {
	TouchesMappings() bool
}

// AdditiveToucher is an optional Op refinement: operators whose
// structural footprint is purely creative — a fresh member version and
// edges from it to its parents, nothing pre-existing modified — report
// it, because results computed before such an operator are
// byte-identical after it (no stored fact can roll up through a member
// that did not exist when the fact's coordinates were written).
type AdditiveToucher interface {
	Additive() bool
}

// TouchSet accumulates the structural footprint of an applied operator
// batch. An operator implementing neither refinement is folded in
// conservatively, as if it had touched every dimension and the mapping
// set — unknown operators must degrade to full invalidation, never to
// stale caches.
type TouchSet struct {
	dims         map[core.DimID]bool
	mappings     bool
	conservative bool
	nonAdditive  bool
}

// observe folds one operator's footprint into the set.
func (ts *TouchSet) observe(op Op) {
	known := false
	if st, ok := op.(StructureToucher); ok {
		known = true
		touched := st.TouchedDims()
		for _, d := range touched {
			if ts.dims == nil {
				ts.dims = make(map[core.DimID]bool)
			}
			ts.dims[d] = true
		}
		if len(touched) > 0 {
			if at, ok := op.(AdditiveToucher); !ok || !at.Additive() {
				ts.nonAdditive = true
			}
		}
	}
	if mt, ok := op.(MappingToucher); ok {
		known = true
		if mt.TouchesMappings() {
			ts.mappings = true
		}
	}
	if !known {
		ts.conservative = true
	}
}

// Dims returns the touched dimensions, sorted for determinism.
func (ts TouchSet) Dims() []core.DimID {
	out := make([]core.DimID, 0, len(ts.dims))
	for d := range ts.dims {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StructureChanged reports whether any dimension structure changed.
func (ts TouchSet) StructureChanged() bool {
	return len(ts.dims) > 0 || ts.conservative
}

// MappingsChanged reports whether the mapping-relationship set changed.
func (ts TouchSet) MappingsChanged() bool {
	return ts.mappings || ts.conservative
}

// StructureAdditive reports that every structural change in the batch
// was purely creative (see AdditiveToucher); false whenever nothing
// structural changed at all.
func (ts TouchSet) StructureAdditive() bool {
	return len(ts.dims) > 0 && !ts.nonAdditive && !ts.conservative
}

// Delta renders the touch-set as a core.Delta for the result cache; the
// caller fills in the fact-side fields (NewFacts, FactsReplaced,
// Retracted — see WithRetraction for the latter).
func (ts TouchSet) Delta() core.Delta {
	return core.Delta{
		StructureChanged:  ts.StructureChanged(),
		MappingsChanged:   ts.MappingsChanged(),
		StructureAdditive: ts.StructureAdditive(),
		DimsTouched:       ts.Dims(),
	}
}

// WithRetraction classifies a fact-retraction batch on top of the
// touch-set's structural footprint: the rendered delta carries the
// retracted tuples and the hull of their instants as the facts window.
// A retraction touches no dimension and no mapping — it is structure-
// neutral — so a retraction-only batch (the zero TouchSet) yields a
// delta under which only cached answers whose time range meets the
// retracted instants can change.
func (ts TouchSet) WithRetraction(retracted []*core.Fact) core.Delta {
	d := ts.Delta()
	d.Retracted = retracted
	d.FactsWindow, d.FactsWindowKnown = core.FactsSpan(retracted)
	return d
}
