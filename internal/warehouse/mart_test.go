package warehouse

import (
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

func TestExtractMartByMember(t *testing.T) {
	s := caseSchema(t)
	mart, err := ExtractMart(s, MartSpec{
		Name:    "sales-mart",
		Members: map[core.DimID][]string{casestudy.OrgDim: {"Sales"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Facts under Sales at their instant: 2001 Jones+Smith, 2002 Jones,
	// 2003 Bill+Paul = 5.
	if mart.Facts().Len() != 5 {
		t.Fatalf("mart facts = %d, want 5", mart.Facts().Len())
	}
	// The structure carries over whole: the mart still answers mapped
	// queries (Bill+Paul back onto Jones in the 2002 structure).
	v2 := mart.VersionAt(temporal.Year(2002))
	if v2 == nil {
		t.Fatal("mart lost structure versions")
	}
	res, err := mart.Execute(core.Query{
		GroupBy: []core.GroupBy{{Dim: casestudy.OrgDim, Level: "Department"}},
		Grain:   core.GrainYear,
		Mode:    core.InVersion(v2),
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Rows() {
		if r.TimeKey == "2003" && r.Groups[0] == "Dpt.Jones" {
			found = true
			if r.Values[0] != 200 || r.CFs[0] != core.ExactMapping {
				t.Errorf("mart Table 9 cell = %v (%v)", r.Values[0], r.CFs[0])
			}
		}
	}
	if !found {
		t.Error("mart lost the mapped presentation")
	}
}

func TestExtractMartByWindow(t *testing.T) {
	s := caseSchema(t)
	mart, err := ExtractMart(s, MartSpec{
		Name:   "y2002",
		Window: temporal.Between(temporal.Year(2002), temporal.EndOfYear(2002)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if mart.Facts().Len() != 3 {
		t.Errorf("windowed mart facts = %d, want 3", mart.Facts().Len())
	}
}

// TestExtractMartIsIndependent: evolving the warehouse after extraction
// must not change the mart.
func TestExtractMartIsIndependent(t *testing.T) {
	s := caseSchema(t)
	mart, err := ExtractMart(s, MartSpec{Name: "all"})
	if err != nil {
		t.Fatal(err)
	}
	// Truncate a member in the source warehouse.
	if err := s.Dimension(casestudy.OrgDim).SetEnd(casestudy.Brian, temporal.YM(2003, 12)); err != nil {
		t.Fatal(err)
	}
	s.Invalidate()
	if got := mart.Dimension(casestudy.OrgDim).Version(casestudy.Brian).Valid.End; got != temporal.Now {
		t.Errorf("mart member mutated with the warehouse: end = %v", got)
	}
	if len(mart.StructureVersions()) != 3 {
		t.Errorf("mart versions = %d", len(mart.StructureVersions()))
	}
}

func TestExtractMartErrors(t *testing.T) {
	s := caseSchema(t)
	if _, err := ExtractMart(s, MartSpec{}); err == nil {
		t.Error("missing name must fail")
	}
	if _, err := ExtractMart(s, MartSpec{Name: "x", Members: map[core.DimID][]string{"zz": {"a"}}}); err == nil {
		t.Error("unknown dimension must fail")
	}
	if _, err := ExtractMart(s, MartSpec{Name: "x", Members: map[core.DimID][]string{casestudy.OrgDim: {"Nobody"}}}); err == nil {
		t.Error("empty selection must fail")
	}
}
