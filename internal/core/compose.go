package core

import (
	"context"
	"fmt"
	"math"

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

// AggregateMember performs the Definition 12 data aggregation of one
// member version at instant t in mode: the grand total of the query over
// [t, t] diced to the member, the one fold every query takes (⊕ per
// measure, ⊗cf per confidence factor). The dice starts from the member
// version itself, not its display name, and passes the tuples of f'|mode
// on it and on every member under it in the mode's structure: D(t) in
// tcm, D at the version's instant in a version mode. It returns one value
// and confidence per measure; a member with no data at t yields NaN
// values with UnknownMapping confidence.
func (s *Schema) AggregateMember(id MVID, t temporal.Instant, mode Mode) ([]float64, []Confidence, error) {
	d := s.DimensionOf(id)
	if d == nil {
		return nil, nil, fmt.Errorf("core: unknown member version %q", id)
	}
	p, err := s.planScan(Query{Range: temporal.Between(t, t), Grain: GrainAll, Mode: mode})
	if err != nil {
		return nil, nil, err
	}
	mv, dim := d.Version(id), p.useDim(s.DimIndex(d.ID))
	if sd := &p.dims[dim]; sd.static && !mv.ValidAt(sd.at) {
		return nil, nil, fmt.Errorf("core: member %q not in structure version %s", id, mode.Version.ID)
	}
	p.addDice(dim, func(v *MemberVersion) bool { return v == mv })
	res, err := s.execute(context.Background(), p)
	if err != nil {
		return nil, nil, err
	}
	if res.Len() == 0 {
		values, cfs := make([]float64, len(s.measures)), make([]Confidence, len(s.measures))
		for k := range values {
			values[k], cfs[k] = math.NaN(), UnknownMapping
		}
		return values, cfs, nil
	}
	return res.Values(0), res.CFs(0), nil
}
