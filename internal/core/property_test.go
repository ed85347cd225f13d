package core_test

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"mvolap/internal/core"
	"mvolap/internal/workload"
)

// These black-box property tests run the full engine over randomly
// generated evolving schemas (package workload) and check the model's
// global invariants.

func genWorkload(seed uint32) *workload.Workload {
	return workload.MustGenerate(workload.Config{
		Seed:              int64(seed),
		Departments:       6 + int(seed%10),
		Years:             3 + int(seed%4),
		EvolutionsPerYear: 1 + int(seed%3),
	})
}

// present collects f'|m through Schema.Present, each tuple copied out
// of the walk's scratch, with the number of facts the mode drops.
func present(s *core.Schema, m core.Mode) ([]*core.MappedFact, int, error) {
	var out []*core.MappedFact
	dropped, err := s.Present(m, func(f *core.MappedFact) bool {
		out = append(out, &core.MappedFact{Coords: f.Coords.Clone(), Time: f.Time,
			Values: slices.Clone(f.Values), CFs: slices.Clone(f.CFs), Sources: f.Sources})
		return true
	})
	return out, dropped, err
}

// TestPropertyTCMIsSource: Definition 11's identity f'|tcm = f × {sd}^m
// holds on arbitrary schemas.
func TestPropertyTCMIsSource(t *testing.T) {
	f := func(seed uint32) bool {
		s := genWorkload(seed).Schema
		mt, dropped, err := present(s, core.TCM())
		if err != nil {
			return false
		}
		if len(mt) != s.Facts().Len() || dropped != 0 {
			return false
		}
		for _, mf := range mt {
			src, ok := s.Facts().Lookup(mf.Coords, mf.Time)
			if !ok {
				return false
			}
			for k := range mf.Values {
				if mf.Values[k] != src[k] || mf.CFs[k] != core.SourceData {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMappedCoordsAreVersionLeaves: in a version mode every
// presented tuple sits on leaf member versions of that structure
// version (Definition 11's coordinate constraint).
func TestPropertyMappedCoordsAreVersionLeaves(t *testing.T) {
	f := func(seed uint32) bool {
		s := genWorkload(seed).Schema
		for _, sv := range s.StructureVersions() {
			mt, _, err := present(s, core.InVersion(sv))
			if err != nil {
				return false
			}
			for di, d := range s.Dimensions() {
				leafSet := map[core.MVID]bool{}
				rd := sv.Dimension(d.ID)
				for _, mv := range rd.LeavesAt(sv.Valid.Start) {
					leafSet[mv.ID] = true
				}
				for _, mf := range mt {
					if !leafSet[mf.Coords[di]] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAccounting: presented sources + dropped sources account
// for every source fact in every mode (fan-out counts once per source).
func TestPropertyAccounting(t *testing.T) {
	f := func(seed uint32) bool {
		s := genWorkload(seed).Schema
		for _, sv := range s.StructureVersions() {
			mt, dropped, err := present(s, core.InVersion(sv))
			if err != nil {
				return false
			}
			// Each source fact either drops or contributes >= 1 mapped
			// tuple; sum of Sources counts fan-in, so it can exceed the
			// source count but never fall below presented sources.
			presented := 0
			for _, mf := range mt {
				presented += mf.Sources
			}
			if dropped < 0 || dropped > s.Facts().Len() {
				return false
			}
			if presented+dropped < s.Facts().Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyQualityBounds: the quality factor of any query result in
// any mode lies in [0, 1], and tcm is always 1.
func TestPropertyQualityBounds(t *testing.T) {
	f := func(seed uint32) bool {
		s := genWorkload(seed).Schema
		for _, mode := range s.Modes() {
			res, err := s.Execute(core.Query{
				GroupBy: []core.GroupBy{{Dim: workload.OrgDim, Level: "Department"}},
				Grain:   core.GrainYear,
				Mode:    mode,
			})
			if err != nil {
				return false
			}
			q := qualityOf(res)
			if q < 0 || q > 1 {
				return false
			}
			if mode.Kind == core.TCMKind && res.Len() > 0 && q != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// qualityOf reimplements the default §5.2 weighting locally to avoid an
// import cycle with the quality package's own tests.
func qualityOf(res *core.Result) float64 {
	weights := map[core.Confidence]int{
		core.SourceData: 10, core.ExactMapping: 8, core.ApproxMapping: 5, core.UnknownMapping: 0,
	}
	sum, cells := 0, 0
	for _, r := range res.Rows() {
		for _, cf := range r.CFs {
			sum += weights[cf]
			cells++
		}
	}
	if cells == 0 {
		return 0
	}
	return float64(sum) / float64(cells*10)
}

// TestPropertyQueryTotalsMatchMVFT: grand-total queries agree with
// direct summation over the mapped table (the query engine adds no
// mass).
func TestPropertyQueryTotalsMatchMVFT(t *testing.T) {
	f := func(seed uint32) bool {
		s := genWorkload(seed).Schema
		for _, mode := range s.Modes() {
			mt, _, err := present(s, mode)
			if err != nil {
				return false
			}
			want := 0.0
			for _, mf := range mt {
				if !math.IsNaN(mf.Values[0]) {
					want += mf.Values[0]
				}
			}
			res, err := s.Execute(core.Query{Grain: core.GrainAll, Mode: mode})
			if err != nil {
				return false
			}
			got := 0.0
			if res.Len() > 0 && !math.IsNaN(res.Rows()[0].Values[0]) {
				got = res.Rows()[0].Values[0]
			}
			if math.Abs(got-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
