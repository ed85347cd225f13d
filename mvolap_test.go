package mvolap_test

import (
	"strings"
	"testing"

	"mvolap"
)

// buildCaseStudy assembles the paper's running example purely through
// the public façade.
func buildCaseStudy(t testing.TB) *mvolap.Schema {
	t.Helper()
	s := mvolap.NewSchema("institution", mvolap.Measure{Name: "Amount", Agg: mvolap.Sum})
	org := mvolap.NewDimension("Org", "Org")
	add := func(id mvolap.MVID, name, level string, valid mvolap.Interval) {
		if err := org.AddVersion(&mvolap.MemberVersion{ID: id, Member: name, Name: name, Level: level, Valid: valid}); err != nil {
			t.Fatal(err)
		}
	}
	add("sales", "Sales", "Division", mvolap.Since(mvolap.Year(2001)))
	add("rnd", "R&D", "Division", mvolap.Since(mvolap.Year(2001)))
	add("jones", "Dpt.Jones", "Department", mvolap.Between(mvolap.Year(2001), mvolap.YM(2002, 12)))
	add("smith", "Dpt.Smith", "Department", mvolap.Since(mvolap.Year(2001)))
	add("brian", "Dpt.Brian", "Department", mvolap.Since(mvolap.Year(2001)))
	add("bill", "Dpt.Bill", "Department", mvolap.Since(mvolap.Year(2003)))
	add("paul", "Dpt.Paul", "Department", mvolap.Since(mvolap.Year(2003)))
	rels := []mvolap.TemporalRelationship{
		{From: "jones", To: "sales", Valid: mvolap.Between(mvolap.Year(2001), mvolap.YM(2002, 12))},
		{From: "smith", To: "sales", Valid: mvolap.Between(mvolap.Year(2001), mvolap.YM(2001, 12))},
		{From: "smith", To: "rnd", Valid: mvolap.Since(mvolap.Year(2002))},
		{From: "brian", To: "rnd", Valid: mvolap.Since(mvolap.Year(2001))},
		{From: "bill", To: "sales", Valid: mvolap.Since(mvolap.Year(2003))},
		{From: "paul", To: "sales", Valid: mvolap.Since(mvolap.Year(2003))},
	}
	for _, r := range rels {
		if err := org.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(org); err != nil {
		t.Fatal(err)
	}
	for _, m := range []mvolap.MappingRelationship{
		{From: "jones", To: "bill",
			Forward:  []mvolap.MeasureMapping{{Fn: mvolap.Linear(0.4), CF: mvolap.ApproxMapping}},
			Backward: []mvolap.MeasureMapping{{Fn: mvolap.Identity, CF: mvolap.ExactMapping}}},
		{From: "jones", To: "paul",
			Forward:  []mvolap.MeasureMapping{{Fn: mvolap.Linear(0.6), CF: mvolap.ApproxMapping}},
			Backward: []mvolap.MeasureMapping{{Fn: mvolap.Identity, CF: mvolap.ExactMapping}}},
	} {
		if err := s.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	type row struct {
		id  mvolap.MVID
		yr  int
		amt float64
	}
	for _, r := range []row{
		{"jones", 2001, 100}, {"smith", 2001, 50}, {"brian", 2001, 100},
		{"jones", 2002, 100}, {"smith", 2002, 100}, {"brian", 2002, 50},
		{"bill", 2003, 150}, {"paul", 2003, 50}, {"smith", 2003, 110}, {"brian", 2003, 40},
	} {
		if err := s.InsertFact(mvolap.Coords{r.id}, mvolap.Year(r.yr), r.amt); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestFacadeEndToEnd(t *testing.T) {
	s := buildCaseStudy(t)
	if got := len(s.StructureVersions()); got != 3 {
		t.Fatalf("structure versions = %d", got)
	}
	out, err := mvolap.Run(s, "SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003 MODE VERSION AT 2002")
	if err != nil {
		t.Fatal(err)
	}
	text := mvolap.Render(out)
	if !strings.Contains(text, "Dpt.Jones | 200 (em)") {
		t.Errorf("Table 9 via façade:\n%s", text)
	}
	if mvolap.QualityOf(out.Result) >= 1 {
		t.Error("mapped result quality must be below 1")
	}
	// Direct query API.
	res, err := s.Execute(mvolap.Query{
		GroupBy: []mvolap.GroupBy{{Dim: "Org", Level: "Division"}},
		Grain:   mvolap.GrainYear,
		Mode:    mvolap.TCM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 || mvolap.QualityOf(res) != 1 {
		t.Error("tcm query via façade failed")
	}
}

func TestFacadeCube(t *testing.T) {
	s := buildCaseStudy(t)
	c, err := mvolap.NewCube(s)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.NewView()
	if err != nil {
		t.Fatal(err)
	}
	g, err := v.DrillDown().SwitchMode(mvolap.InVersion(s.VersionAt(mvolap.Year(2003)))).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.ColLabels) != 4 {
		t.Errorf("V3 departments = %v", g.ColLabels)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if mvolap.Year(2001) != mvolap.YM(2001, 1) {
		t.Error("Year helper wrong")
	}
	iv := mvolap.Between(mvolap.Year(2001), mvolap.YM(2001, 12))
	if iv.Duration() != 12 {
		t.Error("Between helper wrong")
	}
	if !mvolap.Since(mvolap.Year(2001)).Contains(mvolap.Now - 1) {
		t.Error("Since helper wrong")
	}
	if _, ok := mvolap.Unknown().Map(1); ok {
		t.Error("Unknown helper wrong")
	}
	if v, _ := mvolap.Linear(0.5).Map(10); v != 5 {
		t.Error("Linear helper wrong")
	}
}
