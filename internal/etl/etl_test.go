package etl

import (
	"strings"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/temporal"
)

func y(year int) temporal.Instant { return temporal.Year(year) }

const snap2001 = `Department,Division
Dpt.Jones,Sales
Dpt.Smith,Sales
Dpt.Brian,R&D
`

const snap2002 = `Department,Division
Dpt.Jones,Sales
Dpt.Smith,R&D
Dpt.Brian,R&D
`

const snap2003 = `Department,Division
Dpt.Bill,Sales
Dpt.Paul,Sales
Dpt.Smith,R&D
Dpt.Brian,R&D
`

func emptyOrg(t testing.TB) *core.Schema {
	t.Helper()
	s := core.NewSchema("org", core.Measure{Name: "Amount", Agg: core.Sum})
	if err := s.AddDimension(core.NewDimension("Org", "Org")); err != nil {
		t.Fatal(err)
	}
	return s
}

func applySnapshot(t *testing.T, s *core.Schema, a *evolution.Applier, csvText string, at temporal.Instant, hints Hints) {
	t.Helper()
	snap, err := ReadDimensionSnapshot(strings.NewReader(csvText), at)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := Diff(s, "Org", snap, hints)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(ops...); err != nil {
		t.Fatal(err)
	}
}

func TestReadDimensionSnapshot(t *testing.T) {
	snap, err := ReadDimensionSnapshot(strings.NewReader(snap2001), y(2001))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Levels) != 2 || snap.Levels[0] != "Department" {
		t.Fatalf("levels = %v", snap.Levels)
	}
	if len(snap.Rows) != 3 || snap.Rows[1][0] != "Dpt.Smith" {
		t.Fatalf("rows = %v", snap.Rows)
	}
	if _, err := ReadDimensionSnapshot(strings.NewReader(""), y(2001)); err == nil {
		t.Error("empty snapshot must fail")
	}
	if _, err := ReadDimensionSnapshot(strings.NewReader("a,b\nonly-one-field\n"), y(2001)); err == nil {
		t.Error("ragged snapshot must fail")
	}
}

func TestDiffInitialLoad(t *testing.T) {
	s := emptyOrg(t)
	a := evolution.NewApplier(s)
	applySnapshot(t, s, a, snap2001, y(2001), Hints{})
	d := s.Dimension("Org")
	if len(d.VersionsAt(y(2001))) != 5 {
		t.Fatalf("versions after initial load = %d, want 5", len(d.VersionsAt(y(2001))))
	}
	ps := d.ParentsAt("Dpt.Smith", y(2001))
	if len(ps) != 1 || ps[0].Member != "Sales" {
		t.Errorf("Smith parents = %v", ps)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDiffDetectsReclassification(t *testing.T) {
	s := emptyOrg(t)
	a := evolution.NewApplier(s)
	applySnapshot(t, s, a, snap2001, y(2001), Hints{})
	applySnapshot(t, s, a, snap2002, y(2002), Hints{})
	d := s.Dimension("Org")
	p01 := d.ParentsAt("Dpt.Smith", y(2001))
	p02 := d.ParentsAt("Dpt.Smith", y(2002))
	if len(p01) != 1 || p01[0].Member != "Sales" {
		t.Errorf("2001 parent = %v", p01)
	}
	if len(p02) != 1 || p02[0].Member != "R&D" {
		t.Errorf("2002 parent = %v", p02)
	}
	// No spurious ops: re-applying the same snapshot is a no-op.
	snap, _ := ReadDimensionSnapshot(strings.NewReader(snap2002), y(2003))
	ops, err := Diff(s, "Org", snap, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Errorf("idempotent diff produced %d ops: %s", len(ops), evolution.Describe(ops))
	}
}

func TestDiffWithSplitHintReproducesCaseStudy(t *testing.T) {
	s := emptyOrg(t)
	a := evolution.NewApplier(s)
	applySnapshot(t, s, a, snap2001, y(2001), Hints{})
	applySnapshot(t, s, a, snap2002, y(2002), Hints{})
	applySnapshot(t, s, a, snap2003, y(2003), Hints{
		Splits: []SplitHint{{
			Source:  "Dpt.Jones",
			Targets: []string{"Dpt.Bill", "Dpt.Paul"},
			Weights: []float64{0.4, 0.6},
		}},
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	svs := s.StructureVersions()
	if len(svs) != 3 {
		for _, v := range svs {
			t.Logf("  %v", v)
		}
		t.Fatalf("structure versions = %d, want 3", len(svs))
	}
	// Load Table 3 facts through the ETL fact feed.
	const factCSV = `member,time,amount
Dpt.Jones,2001,100
Dpt.Smith,2001,50
Dpt.Brian,2001,100
Dpt.Jones,2002,100
Dpt.Smith,2002,100
Dpt.Brian,2002,50
Dpt.Bill,2003,150
Dpt.Paul,2003,50
Dpt.Smith,2003,110
Dpt.Brian,2003,40
`
	recs, err := ReadFacts(strings.NewReader(factCSV), 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := LoadFacts(s, "Org", recs, Pipeline{TrimMemberSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("loaded %d facts", n)
	}
	// Table 10 through the whole ETL-built schema.
	v3 := s.VersionAt(y(2003))
	res, err := s.Execute(core.Query{
		GroupBy: []core.GroupBy{{Dim: "Org", Level: "Department"}},
		Grain:   core.GrainYear,
		Range:   temporal.Between(y(2002), temporal.EndOfYear(2003)),
		Mode:    core.InVersion(v3),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range res.Rows() {
		got[r.TimeKey+"/"+r.Groups[0]] = r.Values[0]
	}
	if got["2002/Dpt.Bill"] != 40 || got["2002/Dpt.Paul"] != 60 {
		t.Errorf("Table 10 via ETL = %v", got)
	}
}

func TestDiffWithMergeHint(t *testing.T) {
	s := emptyOrg(t)
	a := evolution.NewApplier(s)
	applySnapshot(t, s, a, snap2001, y(2001), Hints{})
	const merged = `Department,Division
Dpt.JS,Sales
Dpt.Brian,R&D
`
	applySnapshot(t, s, a, merged, y(2002), Hints{
		Merges: []MergeHint{{
			Sources:     []string{"Dpt.Jones", "Dpt.Smith"},
			Target:      "Dpt.JS",
			BackWeights: []float64{0.7, 0},
		}},
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	d := s.Dimension("Org")
	if d.Version("Dpt.JS") == nil {
		t.Fatal("merged member missing")
	}
	if d.Version("Dpt.Jones").Valid.End != temporal.YM(2001, 12) {
		t.Error("merge sources must end")
	}
	// Data flows: 2001 values of Jones and Smith sum onto Dpt.JS in V2.
	s.MustInsertFact(core.Coords{"Dpt.Jones"}, y(2001), 100)
	s.MustInsertFact(core.Coords{"Dpt.Smith"}, y(2001), 50)
	v2 := s.VersionAt(y(2002))
	var got []float64
	if _, err := s.Present(core.InVersion(v2), func(f *core.MappedFact) bool {
		if f.Time == y(2001) && f.Coords.Equal(core.Coords{"Dpt.JS"}) {
			got = append(got, f.Values...)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 150 {
		t.Errorf("merged value = %v", got)
	}
}

func TestDiffErrors(t *testing.T) {
	s := emptyOrg(t)
	a := evolution.NewApplier(s)
	applySnapshot(t, s, a, snap2001, y(2001), Hints{})
	snap, _ := ReadDimensionSnapshot(strings.NewReader(snap2003), y(2002))
	cases := []struct {
		name  string
		hints Hints
	}{
		{"unknown split source", Hints{Splits: []SplitHint{{Source: "zz", Targets: []string{"Dpt.Bill"}, Weights: []float64{1}}}}},
		{"split target not in snapshot", Hints{Splits: []SplitHint{{Source: "Dpt.Jones", Targets: []string{"zz"}, Weights: []float64{1}}}}},
		{"split arity", Hints{Splits: []SplitHint{{Source: "Dpt.Jones", Targets: []string{"Dpt.Bill"}, Weights: []float64{1, 2}}}}},
		{"unknown merge source", Hints{Merges: []MergeHint{{Sources: []string{"zz"}, Target: "Dpt.Bill", BackWeights: []float64{1}}}}},
		{"merge target not in snapshot", Hints{Merges: []MergeHint{{Sources: []string{"Dpt.Jones"}, Target: "zz", BackWeights: []float64{1}}}}},
		{"merge arity", Hints{Merges: []MergeHint{{Sources: []string{"Dpt.Jones"}, Target: "Dpt.Bill", BackWeights: nil}}}},
	}
	for _, c := range cases {
		if _, err := Diff(s, "Org", snap, c.hints); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := Diff(s, "zz", snap, Hints{}); err == nil {
		t.Error("unknown dimension must fail")
	}
	bad := &DimensionSnapshot{At: y(2002)}
	if _, err := Diff(s, "Org", bad, Hints{}); err == nil {
		t.Error("snapshot without levels must fail")
	}
	dup := &DimensionSnapshot{At: y(2002), Levels: []string{"A", "B"},
		Rows: [][]string{{"x", "y"}, {"y", "x"}}}
	if _, err := Diff(s, "Org", dup, Hints{}); err == nil {
		t.Error("member at two levels must fail")
	}
}

func TestReadFactsErrors(t *testing.T) {
	if _, err := ReadFacts(strings.NewReader(""), 1); err == nil {
		t.Error("empty feed must fail")
	}
	if _, err := ReadFacts(strings.NewReader("h\nonlyone\n"), 1); err == nil {
		t.Error("short rows must fail")
	}
	if _, err := ReadFacts(strings.NewReader("m,t,v\nx,badtime,1\n"), 1); err == nil {
		t.Error("bad time must fail")
	}
	if _, err := ReadFacts(strings.NewReader("m,t,v\nx,2001,notanumber\n"), 1); err == nil {
		t.Error("bad value must fail")
	}
	recs, err := ReadFacts(strings.NewReader("m,t,v\nx,06/2001,1.5\n"), 1)
	if err != nil || len(recs) != 1 || recs[0].Time != temporal.YM(2001, 6) {
		t.Errorf("month-grain fact = %v, %v", recs, err)
	}
}

func TestPipelineTransforms(t *testing.T) {
	p := Pipeline{
		TrimMemberSpace(),
		RenameMembers(map[string]string{"Jones Dept": "Dpt.Jones"}),
		ScaleMeasure(0, 0.001),
		DropNegative(0),
	}
	rec, keep, err := p.Apply(Record{Member: "  Jones Dept  ", Time: y(2001), Values: []float64{2500}})
	if err != nil || !keep {
		t.Fatalf("apply: %v, keep=%v", err, keep)
	}
	if rec.Member != "Dpt.Jones" || rec.Values[0] != 2.5 {
		t.Errorf("record = %+v", rec)
	}
	// Negative dropped.
	_, keep, err = p.Apply(Record{Member: "x", Values: []float64{-1}})
	if err != nil || keep {
		t.Error("negative record must be dropped")
	}
	// Bad index errors.
	bad := Pipeline{ScaleMeasure(5, 2)}
	if _, _, err := bad.Apply(Record{Values: []float64{1}}); err == nil {
		t.Error("bad measure index must fail")
	}
	bad = Pipeline{DropNegative(5)}
	if _, _, err := bad.Apply(Record{Values: []float64{1}}); err == nil {
		t.Error("bad drop index must fail")
	}
}

func TestLoadFactsErrors(t *testing.T) {
	s := emptyOrg(t)
	a := evolution.NewApplier(s)
	applySnapshot(t, s, a, snap2001, y(2001), Hints{})
	if _, err := LoadFacts(s, "zz", nil, nil); err == nil {
		t.Error("unknown dimension must fail")
	}
	recs := []Record{{Member: "Nobody", Time: y(2001), Values: []float64{1}}}
	if _, err := LoadFacts(s, "Org", recs, nil); err == nil {
		t.Error("unknown member must fail")
	}
	recs = []Record{{Member: "Dpt.Jones", Time: y(1999), Values: []float64{1}}}
	if _, err := LoadFacts(s, "Org", recs, nil); err == nil {
		t.Error("member not valid at time must fail")
	}
	// Pipeline errors propagate.
	recs = []Record{{Member: "Dpt.Jones", Time: y(2001), Values: []float64{1}}}
	if _, err := LoadFacts(s, "Org", recs, Pipeline{ScaleMeasure(7, 1)}); err == nil {
		t.Error("pipeline error must propagate")
	}
}

func TestConsolidate(t *testing.T) {
	recs := []Record{
		{Member: "a", Time: temporal.YM(2001, 1), Values: []float64{10}},
		{Member: "a", Time: temporal.YM(2001, 7), Values: []float64{5}},
		{Member: "b", Time: temporal.YM(2001, 3), Values: []float64{2}},
		{Member: "a", Time: temporal.YM(2002, 2), Values: []float64{1}},
	}
	out := Consolidate(recs, ToYearStart)
	if len(out) != 3 {
		t.Fatalf("consolidated = %d records", len(out))
	}
	if out[0].Member != "a" || out[0].Time != y(2001) || out[0].Values[0] != 15 {
		t.Errorf("first = %+v", out[0])
	}
	if out[2].Time != y(2002) || out[2].Values[0] != 1 {
		t.Errorf("third = %+v", out[2])
	}
	// Source records must not be mutated.
	if recs[0].Values[0] != 10 {
		t.Error("Consolidate mutated its input")
	}
	// Quarter bucketing.
	q := Consolidate(recs, ToQuarterStart)
	if len(q) != 4 {
		t.Errorf("quarter consolidation = %d records", len(q))
	}
	if q[0].Time != temporal.YM(2001, 1) || q[1].Time != temporal.YM(2001, 7) {
		t.Errorf("quarter starts = %v, %v", q[0].Time, q[1].Time)
	}
}

func TestDiscretizeMeasure(t *testing.T) {
	tr := DiscretizeMeasure(0, []float64{10, 100})
	cases := []struct {
		in, want float64
	}{
		{5, 0}, {10, 1}, {50, 1}, {100, 2}, {1000, 2},
	}
	for _, c := range cases {
		r, keep, err := tr(Record{Values: []float64{c.in}})
		if err != nil || !keep {
			t.Fatalf("discretize(%v): %v", c.in, err)
		}
		if r.Values[0] != c.want {
			t.Errorf("discretize(%v) = %v, want %v", c.in, r.Values[0], c.want)
		}
	}
	if _, _, err := tr(Record{}); err == nil {
		t.Error("bad index must fail")
	}
}
