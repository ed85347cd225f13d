package quality

import (
	"math"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

func caseSchema(t *testing.T) *core.Schema {
	t.Helper()
	s, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func q2() core.Query {
	return core.Query{
		GroupBy: []core.GroupBy{{Dim: casestudy.OrgDim, Level: "Department"}},
		Grain:   core.GrainYear,
		Range:   temporal.Between(temporal.Year(2002), temporal.EndOfYear(2003)),
	}
}

func TestDefaultWeights(t *testing.T) {
	w := DefaultWeights()
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w[core.SourceData] != 10 || w[core.UnknownMapping] != 0 {
		t.Errorf("weights = %v", w)
	}
	bad := Weights{11, 0, 0, 0}
	if err := bad.Validate(); err == nil {
		t.Error("weight 11 must be invalid")
	}
	neg := Weights{0, -1, 0, 0}
	if err := neg.Validate(); err == nil {
		t.Error("negative weight must be invalid")
	}
}

func TestQualityOfPureSourceIsOne(t *testing.T) {
	s := caseSchema(t)
	q := q2()
	q.Mode = core.TCM()
	res, err := s.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := Of(res, DefaultWeights()); got != 1.0 {
		t.Errorf("Q(tcm) = %v, want 1.0 (all source data)", got)
	}
}

func TestQualityDegradesWithMapping(t *testing.T) {
	s := caseSchema(t)
	w := DefaultWeights()
	q := q2()
	q.Mode = core.TCM()
	tcmRes, err := s.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	qTCM := Of(tcmRes, w)
	for _, yr := range []int{2002, 2003} {
		qv := q2()
		qv.Mode = core.InVersion(s.VersionAt(temporal.Year(yr)))
		res, err := s.Execute(qv)
		if err != nil {
			t.Fatal(err)
		}
		if got := Of(res, w); got >= qTCM {
			t.Errorf("Q(V%d) = %v, must be below Q(tcm) = %v", yr, got, qTCM)
		}
	}
	// Exact mapping (Table 9) outranks approximate mapping (Table 10):
	// Table 9 has 6 rows, one em; Table 10 has 8 rows, two am.
	q9 := q2()
	q9.Mode = core.InVersion(s.VersionAt(temporal.Year(2002)))
	res9, _ := s.Execute(q9)
	q10 := q2()
	q10.Mode = core.InVersion(s.VersionAt(temporal.Year(2003)))
	res10, _ := s.Execute(q10)
	if Of(res9, w) <= Of(res10, w) {
		t.Errorf("Q(V2002)=%v should beat Q(V2003)=%v", Of(res9, w), Of(res10, w))
	}
	// Exact expected values: V2002: (5*10+8)/60; V2003: (6*10+2*5)/80.
	if got, want := Of(res9, w), (5*10.0+8)/60; math.Abs(got-want) > 1e-12 {
		t.Errorf("Q(V2002) = %v, want %v", got, want)
	}
	if got, want := Of(res10, w), (6*10.0+2*5)/80; math.Abs(got-want) > 1e-12 {
		t.Errorf("Q(V2003) = %v, want %v", got, want)
	}
}

// TestUserWeightsChangeRanking: a user who trusts approximations fully
// but distrusts exact remaps can flip the preference between V2002 and
// V2003 presentations.
func TestUserWeightsChangeRanking(t *testing.T) {
	s := caseSchema(t)
	w := DefaultWeights()
	w[core.ExactMapping] = 0
	w[core.ApproxMapping] = 10
	q9 := q2()
	q9.Mode = core.InVersion(s.VersionAt(temporal.Year(2002)))
	res9, _ := s.Execute(q9)
	q10 := q2()
	q10.Mode = core.InVersion(s.VersionAt(temporal.Year(2003)))
	res10, _ := s.Execute(q10)
	if Of(res9, w) >= Of(res10, w) {
		t.Errorf("with inverted weights V2003 (%v) must beat V2002 (%v)", Of(res10, w), Of(res9, w))
	}
}

func TestQualityEmptyResult(t *testing.T) {
	if Of(nil, DefaultWeights()) != 0 {
		t.Error("nil result must have quality 0")
	}
	if Of(&core.Result{}, DefaultWeights()) != 0 {
		t.Error("empty result must have quality 0")
	}
}

func TestCellColors(t *testing.T) {
	cases := map[core.Confidence]Color{
		core.SourceData:     White,
		core.ExactMapping:   Green,
		core.ApproxMapping:  Yellow,
		core.UnknownMapping: Red,
	}
	for cf, want := range cases {
		if got := CellColor(cf); got != want {
			t.Errorf("CellColor(%v) = %v, want %v", cf, got, want)
		}
	}
	if White.String() != "white" || Red.String() != "red" {
		t.Error("colour names wrong")
	}
	if Color(9).String() == "" {
		t.Error("out-of-range colour String")
	}
	if White.ANSI() != "" || Green.ANSI() == "" {
		t.Error("ANSI prefixes wrong")
	}
}
