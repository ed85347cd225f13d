package metadata

import (
	"context"
	"errors"
	"strings"
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

func TestVersionInfo(t *testing.T) {
	s := caseSchema(t)
	info, err := VersionInfoOf(s, casestudy.Smith)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "Dpt.Smith" || info.Level != "Department" || !info.IsLeaf {
		t.Errorf("info = %+v", info)
	}
	if !info.Valid.Equal(temporal.Since(temporal.Year(2001))) {
		t.Errorf("valid = %v", info.Valid)
	}
	// Smith rolled up to Sales in 2001 and R&D from 2002: both parents
	// appear in the metadata.
	if len(info.Parents) != 2 {
		t.Errorf("parents = %v", info.Parents)
	}
	if _, err := VersionInfoOf(s, "zzz"); err == nil {
		t.Error("unknown version must fail")
	}
	// A division is not a leaf.
	div, err := VersionInfoOf(s, casestudy.Sales)
	if err != nil {
		t.Fatal(err)
	}
	if div.IsLeaf || div.Level != "Division" {
		t.Errorf("division info = %+v", div)
	}
}

// TestMappingTable reproduces the layout of the paper's Table 12 for
// the case study's split (single measure): Jones→Bill k=0.4, k⁻¹=1,
// confidence am (1) forward, em (2) backward.
func TestMappingTable(t *testing.T) {
	s := caseSchema(t)
	rows := MappingTable(s)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	byTo := map[string]MappingRow{}
	for _, r := range rows {
		byTo[r.To] = r
	}
	bill := byTo["Dpt.Bill"]
	if bill.From != "Dpt.Jones" || bill.K[0] != "0.4" || bill.KInv[0] != "1" {
		t.Errorf("bill row = %+v", bill)
	}
	if bill.Conf != 1 || bill.ConfInv != 2 {
		t.Errorf("bill confidences = %d, %d; want 1 (am), 2 (em)", bill.Conf, bill.ConfInv)
	}
	paul := byTo["Dpt.Paul"]
	if paul.K[0] != "0.6" {
		t.Errorf("paul row = %+v", paul)
	}
	text := RenderMappingTable(rows)
	if !strings.Contains(text, "Dpt.Jones | Dpt.Paul | 0.6 | 1 | 1 | 2") {
		t.Errorf("rendered table:\n%s", text)
	}
}

// TestMappingTableTwoMeasures reproduces Table 12 exactly: Turnover m1
// (60/40) and Profit m2 (80/20).
func TestMappingTableTwoMeasures(t *testing.T) {
	s := core.NewSchema("proto",
		core.Measure{Name: "Turnover", Agg: core.Sum},
		core.Measure{Name: "Profit", Agg: core.Sum})
	d := core.NewDimension("Org", "Org")
	y01 := temporal.Year(2001)
	for _, mv := range []*core.MemberVersion{
		{ID: "jones", Name: "Dpt.Jones", Level: "Department", Valid: temporal.Between(y01, temporal.EndOfYear(2002))},
		{ID: "paul", Name: "Dpt.Paul", Level: "Department", Valid: temporal.Since(temporal.Year(2003))},
		{ID: "bill", Name: "Dpt.Bill", Level: "Department", Valid: temporal.Since(temporal.Year(2003))},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.MappingRelationship{
		{From: "jones", To: "paul",
			Forward: []core.MeasureMapping{
				{Fn: core.Linear{K: 0.6}, CF: core.ApproxMapping},
				{Fn: core.Linear{K: 0.8}, CF: core.ApproxMapping},
			},
			Backward: []core.MeasureMapping{
				{Fn: core.Identity, CF: core.ExactMapping},
				{Fn: core.Identity, CF: core.ExactMapping},
			}},
		{From: "jones", To: "bill",
			Forward: []core.MeasureMapping{
				{Fn: core.Linear{K: 0.4}, CF: core.ApproxMapping},
				{Fn: core.Linear{K: 0.2}, CF: core.ApproxMapping},
			},
			Backward: []core.MeasureMapping{
				{Fn: core.Identity, CF: core.ExactMapping},
				{Fn: core.Identity, CF: core.ExactMapping},
			}},
	} {
		if err := s.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	rows := MappingTable(s)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Table 12: From Dpt.Jones To Dpt.Paul k(m1)=0.6 k(m2)=0.8 k-1=1,1
	// Confidence=1 Confidence-1=2.
	paul := rows[0]
	if paul.To != "Dpt.Paul" {
		paul = rows[1]
	}
	if paul.K[0] != "0.6" || paul.K[1] != "0.8" || paul.KInv[0] != "1" || paul.KInv[1] != "1" {
		t.Errorf("paul ks = %v, %v", paul.K, paul.KInv)
	}
	if paul.Conf != 1 || paul.ConfInv != 2 {
		t.Errorf("paul confs = %d, %d", paul.Conf, paul.ConfInv)
	}
}

func TestExplainTCM(t *testing.T) {
	s := caseSchema(t)
	steps, err := Explain(context.Background(), s, core.TCM(), core.Coords{casestudy.Smith}, temporal.Year(2002))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 {
		t.Fatalf("steps = %+v", steps)
	}
	if steps[0].SourceValues[0] != 100 || steps[0].CF[0] != core.SourceData {
		t.Errorf("tcm lineage = %+v", steps[0])
	}
	// Missing cell: no lineage.
	steps, err = Explain(context.Background(), s, core.TCM(), core.Coords{casestudy.Bill}, temporal.Year(2004))
	if err != nil || steps != nil {
		t.Errorf("missing cell lineage = %v, %v", steps, err)
	}
}

func TestExplainMappedCell(t *testing.T) {
	s := caseSchema(t)
	v2 := s.VersionAt(temporal.Year(2002))
	// Jones@2003 in V2002 mode is fed by Bill's 150 and Paul's 50.
	steps, err := Explain(context.Background(), s, core.InVersion(v2), core.Coords{casestudy.Jones}, temporal.Year(2003))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %+v", steps)
	}
	totals := 0.0
	for _, st := range steps {
		totals += st.SourceValues[0]
		if st.CF[0] != core.ExactMapping {
			t.Errorf("step cf = %v, want em", st.CF[0])
		}
		if st.Fn[0] != "x->x" {
			t.Errorf("step fn = %q", st.Fn[0])
		}
	}
	if totals != 200 {
		t.Errorf("contributing values sum to %v, want 200", totals)
	}
	text := RenderLineage(s, steps)
	if !strings.Contains(text, "Dpt.Bill") || !strings.Contains(text, "[em]") {
		t.Errorf("rendered lineage:\n%s", text)
	}
}

func TestExplainSplitCell(t *testing.T) {
	s := caseSchema(t)
	v3 := s.VersionAt(temporal.Year(2003))
	steps, err := Explain(context.Background(), s, core.InVersion(v3), core.Coords{casestudy.Bill}, temporal.Year(2002))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 {
		t.Fatalf("steps = %+v", steps)
	}
	if steps[0].Fn[0] != "x->0.4*x" || steps[0].CF[0] != core.ApproxMapping {
		t.Errorf("split lineage = %+v", steps[0])
	}
	if steps[0].SourceValues[0] != 100 {
		t.Errorf("source value = %v", steps[0].SourceValues[0])
	}
}

func TestExplainErrors(t *testing.T) {
	s := caseSchema(t)
	if _, err := Explain(context.Background(), s, core.TCM(), core.Coords{"a", "b"}, temporal.Year(2001)); err == nil {
		t.Error("coordinate arity must be checked")
	}
	if _, err := Explain(context.Background(), s, core.Mode{Kind: core.VersionKind}, core.Coords{casestudy.Bill}, temporal.Year(2001)); err == nil {
		t.Error("nil version must be rejected")
	}
}

// TestExplainCancelled: a version-mode lineage walks the instant's
// shards under the request's context, so a cancelled request gets the
// context's error and no lineage; tcm's index lookup walks nothing.
func TestExplainCancelled(t *testing.T) {
	s := caseSchema(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v3 := s.VersionAt(temporal.Year(2003))
	steps, err := Explain(ctx, s, core.InVersion(v3), core.Coords{casestudy.Bill}, temporal.Year(2002))
	if !errors.Is(err, context.Canceled) || steps != nil {
		t.Errorf("cancelled lineage = %v, %v; want no steps and context.Canceled", steps, err)
	}
	if steps, err := Explain(ctx, s, core.TCM(), core.Coords{casestudy.Smith}, temporal.Year(2002)); err != nil || len(steps) != 1 {
		t.Errorf("tcm lineage under a cancelled context = %v, %v", steps, err)
	}
}
