package core_test

import (
	"math"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

// wantRow is an expected result line: time bucket, group names, value,
// and (when checked) confidence.
type wantRow struct {
	time   string
	groups []string
	value  float64
	cf     core.Confidence
}

func checkResult(t *testing.T, res *core.Result, want []wantRow, checkCF bool) {
	t.Helper()
	if res.Len() != len(want) {
		t.Fatalf("got %d rows, want %d:\n%s", res.Len(), len(want), dumpResult(res))
	}
	for i, w := range want {
		r := res.Rows()[i]
		if r.TimeKey != w.time {
			t.Errorf("row %d: time %q, want %q", i, r.TimeKey, w.time)
		}
		if len(r.Groups) != len(w.groups) {
			t.Fatalf("row %d: %d groups, want %d", i, len(r.Groups), len(w.groups))
		}
		for j := range w.groups {
			if r.Groups[j] != w.groups[j] {
				t.Errorf("row %d: group[%d] = %q, want %q", i, j, r.Groups[j], w.groups[j])
			}
		}
		if math.IsNaN(w.value) != math.IsNaN(r.Values[0]) ||
			(!math.IsNaN(w.value) && math.Abs(r.Values[0]-w.value) > 1e-9) {
			t.Errorf("row %d (%s %v): value %v, want %v", i, r.TimeKey, r.Groups, r.Values[0], w.value)
		}
		if checkCF && r.CFs[0] != w.cf {
			t.Errorf("row %d (%s %v): cf %v, want %v", i, r.TimeKey, r.Groups, r.CFs[0], w.cf)
		}
	}
}

func dumpResult(res *core.Result) string {
	out := ""
	for _, r := range res.Rows() {
		out += r.TimeKey
		for _, g := range r.Groups {
			out += " | " + g
		}
		out += " | " + core.FormatValue(r.Values[0]) + " (" + r.CFs[0].String() + ")\n"
	}
	return out
}

func fullSchema(t testing.TB) *core.Schema {
	t.Helper()
	s, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// q1 is the paper's query Q1: total Amount by year and division for
// 2001-2002.
func q1(mode core.Mode) core.Query {
	return core.Query{
		GroupBy: []core.GroupBy{{Dim: casestudy.OrgDim, Level: "Division"}},
		Grain:   core.GrainYear,
		Range:   temporal.Between(temporal.Year(2001), temporal.EndOfYear(2002)),
		Mode:    mode,
	}
}

// q2 is the paper's query Q2: total Amount by year and department for
// 2002-2003.
func q2(mode core.Mode) core.Query {
	return core.Query{
		GroupBy: []core.GroupBy{{Dim: casestudy.OrgDim, Level: "Department"}},
		Grain:   core.GrainYear,
		Range:   temporal.Between(temporal.Year(2002), temporal.EndOfYear(2003)),
		Mode:    mode,
	}
}

// TestStructureVersionsOfCaseStudy checks the inference behind Example 7
// extended by the Smith reclassification: three structure versions.
func TestStructureVersionsOfCaseStudy(t *testing.T) {
	s := fullSchema(t)
	svs := s.StructureVersions()
	if len(svs) != 3 {
		for _, v := range svs {
			t.Logf("  %s", v)
		}
		t.Fatalf("got %d structure versions, want 3", len(svs))
	}
	wantValid := []temporal.Interval{
		temporal.Between(temporal.YM(2001, 1), temporal.YM(2001, 12)),
		temporal.Between(temporal.YM(2002, 1), temporal.YM(2002, 12)),
		temporal.Since(temporal.YM(2003, 1)),
	}
	for i, v := range svs {
		if !v.Valid.Equal(wantValid[i]) {
			t.Errorf("V%d valid %v, want %v", i+1, v.Valid, wantValid[i])
		}
	}
	// V1 contains Jones and Smith under Sales; V3 must not contain Jones.
	if !svs[0].Has(casestudy.Jones) || !svs[0].Has(casestudy.Smith) {
		t.Error("V1 must contain Jones and Smith")
	}
	if svs[2].Has(casestudy.Jones) {
		t.Error("V3 must not contain Jones")
	}
	if !svs[2].Has(casestudy.Bill) || !svs[2].Has(casestudy.Paul) {
		t.Error("V3 must contain Bill and Paul")
	}
}

// TestTable4 reproduces Table 4: Q1 in consistent time.
func TestTable4(t *testing.T) {
	s := fullSchema(t)
	res, err := s.Execute(q1(core.TCM()))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, []wantRow{
		{"2001", []string{"R&D"}, 100, core.SourceData},
		{"2001", []string{"Sales"}, 150, core.SourceData},
		{"2002", []string{"R&D"}, 150, core.SourceData},
		{"2002", []string{"Sales"}, 100, core.SourceData},
	}, true)
}

// TestTable5 reproduces Table 5: Q1 mapped on the 2001 organization.
func TestTable5(t *testing.T) {
	s := fullSchema(t)
	v1 := s.VersionAt(temporal.Year(2001))
	if v1 == nil {
		t.Fatal("no structure version for 2001")
	}
	res, err := s.Execute(q1(core.InVersion(v1)))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, []wantRow{
		{"2001", []string{"R&D"}, 100, core.SourceData},
		{"2001", []string{"Sales"}, 150, core.SourceData},
		{"2002", []string{"R&D"}, 50, core.SourceData},
		{"2002", []string{"Sales"}, 200, core.SourceData},
	}, true)
}

// TestTable6 reproduces Table 6: Q1 mapped on the 2002 organization.
func TestTable6(t *testing.T) {
	s := fullSchema(t)
	v2 := s.VersionAt(temporal.Year(2002))
	if v2 == nil {
		t.Fatal("no structure version for 2002")
	}
	res, err := s.Execute(q1(core.InVersion(v2)))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, []wantRow{
		{"2001", []string{"R&D"}, 150, core.SourceData},
		{"2001", []string{"Sales"}, 100, core.SourceData},
		{"2002", []string{"R&D"}, 150, core.SourceData},
		{"2002", []string{"Sales"}, 100, core.SourceData},
	}, true)
}

// TestTable8 reproduces Table 8: Q2 in consistent time.
func TestTable8(t *testing.T) {
	s := fullSchema(t)
	res, err := s.Execute(q2(core.TCM()))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, []wantRow{
		{"2002", []string{"Dpt.Brian"}, 50, core.SourceData},
		{"2002", []string{"Dpt.Jones"}, 100, core.SourceData},
		{"2002", []string{"Dpt.Smith"}, 100, core.SourceData},
		{"2003", []string{"Dpt.Bill"}, 150, core.SourceData},
		{"2003", []string{"Dpt.Brian"}, 40, core.SourceData},
		{"2003", []string{"Dpt.Paul"}, 50, core.SourceData},
		{"2003", []string{"Dpt.Smith"}, 110, core.SourceData},
	}, true)
}

// TestTable9 reproduces Table 9: Q2 mapped on the 2002 organization.
// Bill's and Paul's 2003 amounts map back exactly (em) onto Dpt.Jones
// and merge to 200.
func TestTable9(t *testing.T) {
	s := fullSchema(t)
	v2 := s.VersionAt(temporal.Year(2002))
	res, err := s.Execute(q2(core.InVersion(v2)))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, []wantRow{
		{"2002", []string{"Dpt.Brian"}, 50, core.SourceData},
		{"2002", []string{"Dpt.Jones"}, 100, core.SourceData},
		{"2002", []string{"Dpt.Smith"}, 100, core.SourceData},
		{"2003", []string{"Dpt.Brian"}, 40, core.SourceData},
		{"2003", []string{"Dpt.Jones"}, 200, core.ExactMapping},
		{"2003", []string{"Dpt.Smith"}, 110, core.SourceData},
	}, true)
}

// TestTable10 reproduces Table 10: Q2 mapped on the 2003 organization.
// Jones's 2002 amount splits approximately (am) as 40% to Bill and 60%
// to Paul.
func TestTable10(t *testing.T) {
	s := fullSchema(t)
	v3 := s.VersionAt(temporal.Year(2003))
	res, err := s.Execute(q2(core.InVersion(v3)))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, []wantRow{
		{"2002", []string{"Dpt.Bill"}, 40, core.ApproxMapping},
		{"2002", []string{"Dpt.Brian"}, 50, core.SourceData},
		{"2002", []string{"Dpt.Paul"}, 60, core.ApproxMapping},
		{"2002", []string{"Dpt.Smith"}, 100, core.SourceData},
		{"2003", []string{"Dpt.Bill"}, 150, core.SourceData},
		{"2003", []string{"Dpt.Brian"}, 40, core.SourceData},
		{"2003", []string{"Dpt.Paul"}, 50, core.SourceData},
		{"2003", []string{"Dpt.Smith"}, 110, core.SourceData},
	}, true)
}

// TestQ1DivisionTotalsInvariant: under exact or identity mappings the
// yearly grand total is identical in every mode (mass conservation).
func TestGrandTotalInvariantAcrossModes(t *testing.T) {
	s := fullSchema(t)
	grand := func(mode core.Mode) map[string]float64 {
		res, err := s.Execute(core.Query{
			Grain: core.GrainYear,
			Mode:  mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, r := range res.Rows() {
			out[r.TimeKey] = r.Values[0]
		}
		return out
	}
	base := grand(core.TCM())
	for _, v := range s.StructureVersions() {
		got := grand(core.InVersion(v))
		for year, want := range base {
			if math.Abs(got[year]-want) > 1e-9 {
				t.Errorf("mode %s: total for %s = %v, want %v", v.ID, year, got[year], want)
			}
		}
	}
}
