package evolution

import (
	"math"
	"slices"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

// TestCaseStudyRebuiltFromOperators replays the paper's §2.1 history with
// evolution operators starting from the 2001 organization, then checks
// that the structure versions and the version-mapped queries of
// Tables 9 and 10 come out right.
func TestCaseStudyRebuiltFromOperators(t *testing.T) {
	s := freshOrg(t)
	a := NewApplier(s)

	// 2002: Smith is reorganized and moved into R&D (Table 2).
	if err := a.Apply(ReclassifyMember("Org", "Smith", y(2002),
		[]core.MVID{"Sales"}, []core.MVID{"R&D"})...); err != nil {
		t.Fatal(err)
	}
	// 2003: Jones is split into Bill (40%) and Paul (60%) (Table 7 +
	// Example 6).
	split := Split("Org", "Jones", []SplitTarget{
		{
			Member:   NewMember{ID: "Bill", Name: "Dpt.Bill", Level: "Department", Parents: []core.MVID{"Sales"}},
			Forward:  core.UniformMapping(1, core.Linear{K: 0.4}, core.ApproxMapping),
			Backward: core.UniformMapping(1, core.Identity, core.ExactMapping),
		},
		{
			Member:   NewMember{ID: "Paul", Name: "Dpt.Paul", Level: "Department", Parents: []core.MVID{"Sales"}},
			Forward:  core.UniformMapping(1, core.Linear{K: 0.6}, core.ApproxMapping),
			Backward: core.UniformMapping(1, core.Identity, core.ExactMapping),
		},
	}, y(2003))
	if err := a.Apply(split...); err != nil {
		t.Fatal(err)
	}

	// Load Table 3.
	type row struct {
		id  core.MVID
		yr  int
		amt float64
	}
	for _, r := range []row{
		{"Jones", 2001, 100}, {"Smith", 2001, 50}, {"Brian", 2001, 100},
		{"Jones", 2002, 100}, {"Smith", 2002, 100}, {"Brian", 2002, 50},
		{"Bill", 2003, 150}, {"Paul", 2003, 50}, {"Smith", 2003, 110}, {"Brian", 2003, 40},
	} {
		if err := s.InsertFact(core.Coords{r.id}, y(r.yr), r.amt); err != nil {
			t.Fatal(err)
		}
	}

	svs := s.StructureVersions()
	if len(svs) != 3 {
		for _, v := range svs {
			t.Logf("  %v", v)
		}
		t.Fatalf("structure versions = %d, want 3", len(svs))
	}

	// Table 9: Q2 on the 2002 organization.
	v2 := s.VersionAt(y(2002))
	res, err := s.Execute(core.Query{
		GroupBy: []core.GroupBy{{Dim: "Org", Level: "Department"}},
		Grain:   core.GrainYear,
		Range:   temporal.Between(y(2002), ym(2003, 12)),
		Mode:    core.InVersion(v2),
	})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	cfs := map[string]core.Confidence{}
	for _, r := range res.Rows() {
		byKey[r.TimeKey+"/"+r.Groups[0]] = r.Values[0]
		cfs[r.TimeKey+"/"+r.Groups[0]] = r.CFs[0]
	}
	if byKey["2003/Dpt.Jones"] != 200 || cfs["2003/Dpt.Jones"] != core.ExactMapping {
		t.Errorf("Table 9 Jones 2003 = %v (%v), want 200 (em)", byKey["2003/Dpt.Jones"], cfs["2003/Dpt.Jones"])
	}

	// Table 10: Q2 on the 2003 organization.
	v3 := s.VersionAt(y(2003))
	res, err = s.Execute(core.Query{
		GroupBy: []core.GroupBy{{Dim: "Org", Level: "Department"}},
		Grain:   core.GrainYear,
		Range:   temporal.Between(y(2002), ym(2003, 12)),
		Mode:    core.InVersion(v3),
	})
	if err != nil {
		t.Fatal(err)
	}
	byKey = map[string]float64{}
	for _, r := range res.Rows() {
		byKey[r.TimeKey+"/"+r.Groups[0]] = r.Values[0]
	}
	if byKey["2002/Dpt.Bill"] != 40 || byKey["2002/Dpt.Paul"] != 60 {
		t.Errorf("Table 10 2002 split = Bill %v, Paul %v; want 40, 60",
			byKey["2002/Dpt.Bill"], byKey["2002/Dpt.Paul"])
	}
}

// mergeFixture builds a two-leaf schema and merges them at 2002.
func mergeFixture(t *testing.T, backward2 []core.MeasureMapping) *core.Schema {
	t.Helper()
	s := core.NewSchema("m", core.Measure{Name: "v", Agg: core.Sum})
	d := core.NewDimension("D", "D")
	for _, mv := range []*core.MemberVersion{
		{ID: "top", Level: "Top", Valid: temporal.Since(y(2001))},
		{ID: "V1", Level: "Leaf", Valid: temporal.Since(y(2001))},
		{ID: "V2", Level: "Leaf", Valid: temporal.Since(y(2001))},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []core.TemporalRelationship{
		{From: "V1", To: "top", Valid: temporal.Since(y(2001))},
		{From: "V2", To: "top", Valid: temporal.Since(y(2001))},
	} {
		if err := d.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	a := NewApplier(s)
	// Table 11's merge: half of V12's values map back to V1 with
	// approximation; the mapping back to V2 is configurable.
	ops := Merge("D", []MergeSource{
		{ID: "V1",
			Forward:  core.UniformMapping(1, core.Identity, core.ExactMapping),
			Backward: core.UniformMapping(1, core.Linear{K: 0.5}, core.ApproxMapping)},
		{ID: "V2",
			Forward:  core.UniformMapping(1, core.Identity, core.ExactMapping),
			Backward: backward2},
	}, NewMember{ID: "V12", Name: "V12", Level: "Leaf", Parents: []core.MVID{"top"}}, y(2002))
	if err := a.Apply(ops...); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMergeOperation(t *testing.T) {
	s := mergeFixture(t, core.UniformMapping(1, core.Unknown{}, core.UnknownMapping))
	// Old leaves end at 12/2001; V12 exists from 2002.
	d := s.Dimension("D")
	if d.Version("V1").Valid.End != ym(2001, 12) {
		t.Error("V1 must end at 12/2001")
	}
	if !d.Version("V12").Valid.Equal(temporal.Since(y(2002))) {
		t.Error("V12 validity wrong")
	}
	// Data recorded on V1 and V2 in 2001 presents as their sum on V12 in
	// the 2002 structure version.
	s.MustInsertFact(core.Coords{"V1"}, y(2001), 30)
	s.MustInsertFact(core.Coords{"V2"}, y(2001), 12)
	v2 := s.VersionAt(y(2002))
	mt := presentMode(t, s, core.InVersion(v2))
	got, ok := mt.Lookup(core.Coords{"V12"}, y(2001))
	if !ok || got.Values[0] != 42 {
		t.Errorf("merged presentation = %+v, want 42", got)
	}
	if got.CFs[0] != core.ExactMapping {
		t.Errorf("merged cf = %v, want em", got.CFs[0])
	}
	// V12's 2002 data mapped back to the 2001 version: half to V1 (am),
	// unknown to V2.
	s.MustInsertFact(core.Coords{"V12"}, y(2002), 100)
	v1 := s.VersionAt(y(2001))
	mt = presentMode(t, s, core.InVersion(v1))
	gv1, ok := mt.Lookup(core.Coords{"V1"}, y(2002))
	if !ok || gv1.Values[0] != 50 || gv1.CFs[0] != core.ApproxMapping {
		t.Errorf("back-mapped V1 = %+v, want 50 (am)", gv1)
	}
	gv2, ok := mt.Lookup(core.Coords{"V2"}, y(2002))
	if !ok || !math.IsNaN(gv2.Values[0]) || gv2.CFs[0] != core.UnknownMapping {
		t.Errorf("back-mapped V2 = %+v, want unknown", gv2)
	}
}

func TestIncreaseOperation(t *testing.T) {
	s := core.NewSchema("inc", core.Measure{Name: "v", Agg: core.Sum})
	d := core.NewDimension("D", "D")
	for _, mv := range []*core.MemberVersion{
		{ID: "top", Level: "Top", Valid: temporal.Since(y(2001))},
		{ID: "V", Level: "Leaf", Valid: temporal.Since(y(2001))},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddRelationship(core.TemporalRelationship{From: "V", To: "top", Valid: temporal.Since(y(2001))}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	a := NewApplier(s)
	// Table 11: increase V in V+ with factor 2, approximated.
	ops := Increase("D", "V", NewMember{ID: "V+", Name: "V+", Level: "Leaf", Parents: []core.MVID{"top"}}, y(2002), 2, 1)
	if err := a.Apply(ops...); err != nil {
		t.Fatal(err)
	}
	s.MustInsertFact(core.Coords{"V"}, y(2001), 10)
	s.MustInsertFact(core.Coords{"V+"}, y(2002), 50)
	// Forward: V's 10 becomes 20 on V+ (am).
	vNew := s.VersionAt(y(2002))
	mt := presentMode(t, s, core.InVersion(vNew))
	fwd, ok := mt.Lookup(core.Coords{"V+"}, y(2001))
	if !ok || fwd.Values[0] != 20 || fwd.CFs[0] != core.ApproxMapping {
		t.Errorf("forward = %+v, want 20 (am)", fwd)
	}
	// Backward: V+'s 50 becomes 25 on V (x→0.5x).
	vOld := s.VersionAt(y(2001))
	mt = presentMode(t, s, core.InVersion(vOld))
	back, ok := mt.Lookup(core.Coords{"V"}, y(2002))
	if !ok || back.Values[0] != 25 {
		t.Errorf("backward = %+v, want 25", back)
	}
}

func TestDecreaseOperation(t *testing.T) {
	s := core.NewSchema("dec", core.Measure{Name: "v", Agg: core.Sum})
	d := core.NewDimension("D", "D")
	for _, mv := range []*core.MemberVersion{
		{ID: "top", Level: "Top", Valid: temporal.Since(y(2001))},
		{ID: "V", Level: "Leaf", Valid: temporal.Since(y(2001))},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddRelationship(core.TemporalRelationship{From: "V", To: "top", Valid: temporal.Since(y(2001))}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	// Decrease: 70% kept.
	ops := Decrease("D", "V", NewMember{ID: "V-", Name: "V-", Level: "Leaf", Parents: []core.MVID{"top"}}, y(2002), 0.7, 1)
	if err := NewApplier(s).Apply(ops...); err != nil {
		t.Fatal(err)
	}
	s.MustInsertFact(core.Coords{"V"}, y(2001), 100)
	vNew := s.VersionAt(y(2002))
	mt := presentMode(t, s, core.InVersion(vNew))
	got, ok := mt.Lookup(core.Coords{"V-"}, y(2001))
	if !ok || math.Abs(got.Values[0]-70) > 1e-9 || got.CFs[0] != core.ApproxMapping {
		t.Errorf("decreased presentation = %+v, want 70 (am)", got)
	}
}

// TestPartialAnnexationOperation reproduces Table 11's last entry with
// the paper's numbers: 10% of V1 goes to V2 (a 20% increase for V2).
func TestPartialAnnexationOperation(t *testing.T) {
	s := core.NewSchema("pa", core.Measure{Name: "v", Agg: core.Sum})
	d := core.NewDimension("D", "D")
	for _, mv := range []*core.MemberVersion{
		{ID: "top", Level: "Top", Valid: temporal.Since(y(2001))},
		{ID: "V1", Level: "Leaf", Valid: temporal.Since(y(2001))},
		{ID: "V2", Level: "Leaf", Valid: temporal.Since(y(2001))},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []core.TemporalRelationship{
		{From: "V1", To: "top", Valid: temporal.Since(y(2001))},
		{From: "V2", To: "top", Valid: temporal.Since(y(2001))},
	} {
		if err := d.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	ops := PartialAnnexation("D", "V1", "V2",
		NewMember{ID: "V1-", Name: "V1-", Level: "Leaf", Parents: []core.MVID{"top"}},
		NewMember{ID: "V2+", Name: "V2+", Level: "Leaf", Parents: []core.MVID{"top"}},
		y(2002), 0.1, 0.2, 1)
	if len(ops) != 7 {
		t.Fatalf("partial annexation compiles to %d ops, want 7 (Table 11)", len(ops))
	}
	if err := NewApplier(s).Apply(ops...); err != nil {
		t.Fatal(err)
	}
	s.MustInsertFact(core.Coords{"V1"}, y(2001), 100)
	s.MustInsertFact(core.Coords{"V2"}, y(2001), 40)
	vNew := s.VersionAt(y(2002))
	mt := presentMode(t, s, core.InVersion(vNew))
	g1, ok := mt.Lookup(core.Coords{"V1-"}, y(2001))
	if !ok || math.Abs(g1.Values[0]-90) > 1e-9 {
		t.Errorf("V1- = %+v, want 90", g1)
	}
	// V2+ receives V2's 40 (em) plus 10% of V1's 100 (am): 50 with am.
	g2, ok := mt.Lookup(core.Coords{"V2+"}, y(2001))
	if !ok || math.Abs(g2.Values[0]-50) > 1e-9 {
		t.Errorf("V2+ = %+v, want 50", g2)
	}
	if g2.CFs[0] != core.ApproxMapping {
		t.Errorf("V2+ cf = %v, want am", g2.CFs[0])
	}
	// Totals preserved: 90 + 50 = 140 = 100 + 40.
}

func TestCreateAndDeleteMember(t *testing.T) {
	s := freshOrg(t)
	a := NewApplier(s)
	ops := CreateMember("Org", NewMember{
		ID: "Dave", Name: "Dpt.Dave", Level: "Department", Parents: []core.MVID{"R&D"},
	}, y(2002))
	if err := a.Apply(ops...); err != nil {
		t.Fatal(err)
	}
	if s.Dimension("Org").Version("Dave") == nil {
		t.Fatal("member not created")
	}
	ops = DeleteMember("Org", "Dave", y(2004))
	if err := a.Apply(ops...); err != nil {
		t.Fatal(err)
	}
	if got := s.Dimension("Org").Version("Dave").Valid.End; got != ym(2003, 12) {
		t.Errorf("deleted member end = %v", got)
	}
}

func TestTransformKeepsEquivalence(t *testing.T) {
	s := freshOrg(t)
	a := NewApplier(s)
	ops := Transform("Org", "Jones", NewMember{
		ID: "Jones2", Name: "Dpt.Jones", Level: "Department", Parents: []core.MVID{"Sales"},
	}, y(2002), 1)
	if err := a.Apply(ops...); err != nil {
		t.Fatal(err)
	}
	s.MustInsertFact(core.Coords{"Jones"}, y(2001), 100)
	s.MustInsertFact(core.Coords{"Jones2"}, y(2002), 120)
	// In the 2002 version, 2001 data presents on Jones2 unchanged (em).
	v2 := s.VersionAt(y(2002))
	mt := presentMode(t, s, core.InVersion(v2))
	got, ok := mt.Lookup(core.Coords{"Jones2"}, y(2001))
	if !ok || got.Values[0] != 100 || got.CFs[0] != core.ExactMapping {
		t.Errorf("transformed presentation = %+v, want 100 (em)", got)
	}
}

// TestTransformChangesAttributes: §2.3 defines transformation as
// "change of an attribute, its name or meaning"; the new version can
// carry different attributes while the equivalence mapping keeps data
// flowing across the transition.
func TestTransformChangesAttributes(t *testing.T) {
	s := freshOrg(t)
	a := NewApplier(s)
	ops := Transform("Org", "Jones", NewMember{
		ID:      "Jones2",
		Name:    "Dpt.Jones",
		Level:   "Department",
		Parents: []core.MVID{"Sales"},
		Attrs:   map[string]string{"building": "Annex B", "head": "J. Jones Jr."},
	}, y(2002), 1)
	if err := a.Apply(ops...); err != nil {
		t.Fatal(err)
	}
	d := s.Dimension("Org")
	old := d.Version("Jones")
	neu := d.Version("Jones2")
	if old.Attrs != nil {
		t.Errorf("old attrs = %v", old.Attrs)
	}
	if neu.Attrs["building"] != "Annex B" {
		t.Errorf("new attrs = %v", neu.Attrs)
	}
	// Both are versions of the same member.
	if neu.Member != "Dpt.Jones" || old.Member != "Dpt.Jones" {
		t.Errorf("member names: %q vs %q", old.Member, neu.Member)
	}
	vs := 0
	for _, mv := range d.Versions() {
		if mv.Member == "Dpt.Jones" {
			vs++
		}
	}
	if vs != 2 {
		t.Errorf("versions of member = %d", vs)
	}
}

// presentedMode is f'|m as Schema.Present lists it.
type presentedMode []*core.MappedFact

// presentMode collects f'|m, each tuple copied out of the walk's
// scratch.
func presentMode(t *testing.T, s *core.Schema, m core.Mode) presentedMode {
	t.Helper()
	var out presentedMode
	if _, err := s.Present(m, func(f *core.MappedFact) bool {
		out = append(out, &core.MappedFact{Coords: f.Coords.Clone(), Time: f.Time,
			Values: slices.Clone(f.Values), CFs: slices.Clone(f.CFs), Sources: f.Sources})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// Lookup returns the tuple at (c, at).
func (p presentedMode) Lookup(c core.Coords, at temporal.Instant) (*core.MappedFact, bool) {
	for _, f := range p {
		if f.Time == at && f.Coords.Equal(c) {
			return f, true
		}
	}
	return nil, false
}
