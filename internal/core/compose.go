package core

import (
	"context"
	"fmt"

	"mvolap/internal/temporal"
)

// This file implements the improvement the paper's conclusion calls
// for: "Our model still suffers from the fact that a structure version
// is composed of the set of the temporal dimensions validated for that
// version. An improvement would allow the building of a structure
// version by selecting the temporal dimensions in different versions."
//
// ComposeVersion builds exactly that: a synthetic structure version
// whose per-dimension structure is picked from possibly different
// inferred versions. An analyst can, for example, present data with the
// current product hierarchy but last year's sales territories.

// ComposeVersion builds a custom presentation structure: picks selects,
// per dimension ID, the inferred structure version (by ID) whose
// structure of that dimension to use. Every schema dimension must be
// picked, and valid must be non-empty. The composite copies nothing: it
// reads each dimension at the start of the version picked for it.
//
// The result can be used anywhere a structure version can — most
// usefully as InVersion(composed) in a query's temporal mode of
// presentation. Result caches key on the version ID, so the ID may be
// neither "tcm" nor one an inferred version holds.
func (s *Schema) ComposeVersion(id string, valid temporal.Interval, picks map[DimID]string) (*StructureVersion, error) {
	if valid.Empty() {
		return nil, fmt.Errorf("core: compose %s: empty valid interval", id)
	}
	if id == "" {
		return nil, fmt.Errorf("core: compose: empty version ID")
	}
	if id == TCM().String() || s.VersionByID(id) != nil {
		return nil, fmt.Errorf("core: compose %s: the ID already names a mode of the schema", id)
	}
	out := &StructureVersion{ID: id, Valid: valid, picked: make([]temporal.Instant, len(s.dims)), dims: s.snapshots()}
	for i, d := range s.dims {
		pickID, ok := picks[d.ID]
		if !ok {
			return nil, fmt.Errorf("core: compose %s: no pick for dimension %s", id, d.ID)
		}
		src := s.VersionByID(pickID)
		if src == nil {
			return nil, fmt.Errorf("core: compose %s: unknown structure version %q", id, pickID)
		}
		out.picked[i] = src.Valid.Start
	}
	return out, nil
}

// AggregateMember performs the Definition 12 data aggregation for one
// member version directly: it locates the member in the mode's
// structure, collects the leaf member versions below it (or itself when
// it is a leaf), and folds the mode-mapped values at instant t with the
// measure aggregates ⊕ and the confidence algebra ⊗cf: the tuples of
// f'|mode at t alone, presented as Present presents them. It returns one
// value and confidence per measure; a member with no data at t yields
// NaN values with UnknownMapping confidence.
func (s *Schema) AggregateMember(id MVID, t temporal.Instant, mode Mode) ([]float64, []Confidence, error) {
	d := s.DimensionOf(id)
	if d == nil {
		return nil, nil, fmt.Errorf("core: unknown member version %q", id)
	}
	dimPos := s.DimIndex(d.ID)
	// Pick the instant to roll up in: the fact's in tcm, the version's
	// own in a version mode.
	at := t
	if mode.Kind == VersionKind {
		if mode.Version == nil {
			return nil, nil, fmt.Errorf("core: version mode without version")
		}
		at = mode.Version.readAt(dimPos)
		if !d.Version(id).ValidAt(at) {
			return nil, nil, fmt.Errorf("core: member %q not in structure version %s", id, mode.Version.ID)
		}
	}
	// under[o] is 2 when the member version with ordinal o is a leaf
	// under id at `at` (id itself when childless), 1 when it is an inner
	// member under id, 0 when the walk down from id does not meet it.
	under := make([]uint8, len(d.order))
	var walk func(mv *MemberVersion)
	walk = func(mv *MemberVersion) {
		if under[mv.ord] != 0 {
			return
		}
		under[mv.ord] = 1
		kids := d.ChildrenAt(mv.ID, at)
		if len(kids) == 0 {
			under[mv.ord] = 2
		}
		for _, c := range kids {
			walk(c)
		}
	}
	walk(d.Version(id))

	accs := make([]*Accumulator, len(s.measures))
	for i, m := range s.measures {
		accs[i] = NewAccumulator(m.Agg)
	}
	cfs := make([]Confidence, len(s.measures))
	first := true
	_, err := s.present(context.Background(), mode, temporal.Between(t, t), func(f *MappedFact, ords []int32) bool {
		if o := ords[dimPos]; int(o) >= len(under) || under[o] != 2 {
			return true
		}
		for k := range accs {
			accs[k].Add(f.Values[k])
			if first {
				cfs[k] = f.CFs[k]
			} else {
				cfs[k] = s.alg.Combine(cfs[k], f.CFs[k])
			}
		}
		first = false
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	values := make([]float64, len(accs))
	for k, a := range accs {
		values[k] = a.Value()
		if a.N() == 0 {
			cfs[k] = UnknownMapping
		}
	}
	return values, cfs, nil
}
