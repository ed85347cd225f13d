package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mvolap/internal/temporal"
)

func TestQueryGrains(t *testing.T) {
	s := NewSchema("g", Measure{Name: "m", Agg: Sum})
	d := NewDimension("D", "D")
	if err := d.AddVersion(&MemberVersion{ID: "a", Level: "Leaf", Valid: temporal.Always}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	// One fact per month over 2001.
	for m := 1; m <= 12; m++ {
		if err := s.InsertFact(Coords{"a"}, ym(2001, m), 1); err != nil {
			t.Fatal(err)
		}
	}
	run := func(grain TimeGrain) *Result {
		res, err := s.Execute(Query{Grain: grain, Mode: TCM()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(GrainAll); len(res.Rows) != 1 || res.Rows[0].Values[0] != 12 {
		t.Errorf("GrainAll: %+v", res.Rows)
	}
	if res := run(GrainYear); len(res.Rows) != 1 || res.Rows[0].TimeKey != "2001" {
		t.Errorf("GrainYear: %+v", res.Rows)
	}
	if res := run(GrainQuarter); len(res.Rows) != 4 || res.Rows[0].TimeKey != "Q1/2001" || res.Rows[0].Values[0] != 3 {
		t.Errorf("GrainQuarter: %+v", res.Rows)
	}
	if res := run(GrainMonth); len(res.Rows) != 12 || res.Rows[0].TimeKey != "01/2001" {
		t.Errorf("GrainMonth: %+v", res.Rows)
	}
}

// TestVersionModeLevelsFollowTheDimension: Definition 4 levels a
// dimension as a whole, so one unlevelled member puts every instant on
// depth levels — including a version's, over which every valid member
// happens to carry a tag. Every mode answers the levels the query was
// planned with.
func TestVersionModeLevelsFollowTheDimension(t *testing.T) {
	s := NewSchema("lv", Measure{Name: "m", Agg: Sum})
	d := NewDimension("D", "D")
	for _, mv := range []*MemberVersion{
		{ID: "top", Level: "Top", Valid: temporal.Since(y(2001))},
		{ID: "a", Level: "Leaf", Valid: temporal.Since(y(2001))},
		{ID: "x", Valid: temporal.Since(y(2003))},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []TemporalRelationship{
		{From: "a", To: "top", Valid: temporal.Since(y(2001))},
		{From: "x", To: "top", Valid: temporal.Since(y(2003))},
	} {
		if err := d.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	s.MustInsertFact(Coords{"a"}, y(2001), 5)
	s.MustInsertFact(Coords{"a"}, y(2003), 2)
	svs := s.StructureVersions()
	if len(svs) != 2 {
		t.Fatalf("structure versions = %v, want 2", svs)
	}
	for _, mode := range []Mode{TCM(), InVersion(svs[0]), InVersion(svs[1])} {
		res, err := s.Execute(Query{GroupBy: []GroupBy{{Dim: "D", Level: "depth-0"}}, Grain: GrainYear, Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		var got []string
		for _, r := range res.Rows {
			got = append(got, fmt.Sprintf("%s/%s/%s", r.TimeKey, r.Groups[0], FormatValue(r.Values[0])))
		}
		if want := []string{"2001/top/5", "2003/top/2"}; !slices.Equal(got, want) {
			t.Errorf("%s: rows %v, want %v", mode, got, want)
		}
		if _, err := s.Execute(Query{GroupBy: []GroupBy{{Dim: "D", Level: "Top"}}, Mode: mode}); err == nil {
			t.Errorf("%s: the tag level Top must be refused on a depth-levelled dimension", mode)
		}
	}
}

func TestTimeGrainString(t *testing.T) {
	for grain, want := range map[TimeGrain]string{
		GrainAll: "all", GrainYear: "year", GrainQuarter: "quarter", GrainMonth: "month",
	} {
		if grain.String() != want {
			t.Errorf("String(%d) = %q", grain, grain.String())
		}
	}
	if TimeGrain(9).String() == "" {
		t.Error("out-of-range grain String")
	}
}

func TestQueryMeasureSelection(t *testing.T) {
	s := NewSchema("m2", Measure{Name: "turnover", Agg: Sum}, Measure{Name: "profit", Agg: Sum})
	d := NewDimension("D", "D")
	if err := d.AddVersion(&MemberVersion{ID: "a", Level: "Leaf", Valid: temporal.Always}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertFact(Coords{"a"}, y(2001), 100, 20); err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute(Query{Measures: []string{"profit"}, Grain: GrainYear, Mode: TCM()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeasureNames) != 1 || res.MeasureNames[0] != "profit" || res.Rows[0].Values[0] != 20 {
		t.Errorf("projection failed: %+v", res)
	}
	// All measures by default.
	res, err = s.Execute(Query{Grain: GrainYear, Mode: TCM()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeasureNames) != 2 {
		t.Errorf("default selection = %v", res.MeasureNames)
	}
	if _, err := s.Execute(Query{Measures: []string{"zz"}, Mode: TCM()}); err == nil {
		t.Error("unknown measure must fail")
	}
	if _, err := s.Execute(Query{GroupBy: []GroupBy{{Dim: "zz"}}, Mode: TCM()}); err == nil {
		t.Error("unknown dimension must fail")
	}
}

func TestQueryGroupNames(t *testing.T) {
	s := splitSchema(t)
	res, err := s.Execute(Query{
		GroupBy: []GroupBy{{Dim: "Org", Level: "Division"}},
		Grain:   GrainYear,
		Mode:    TCM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GroupNames) != 1 || res.GroupNames[0] != "Org.Division" {
		t.Errorf("GroupNames = %v", res.GroupNames)
	}
	if res.Mode.Kind != TCMKind {
		t.Error("result must echo the mode")
	}
}

// TestMultiHierarchyFanOut: a leaf under two parents contributes to both
// groups.
func TestMultiHierarchyFanOut(t *testing.T) {
	s := NewSchema("mh", Measure{Name: "m", Agg: Sum})
	d := NewDimension("Geo", "Geo")
	for _, mv := range []*MemberVersion{
		{ID: "city", Level: "City", Valid: temporal.Always},
		{ID: "state", Level: "Admin", Valid: temporal.Always},
		{ID: "region", Level: "Admin", Valid: temporal.Always},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []TemporalRelationship{
		{From: "city", To: "state", Valid: temporal.Always},
		{From: "city", To: "region", Valid: temporal.Always},
	} {
		if err := d.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertFact(Coords{"city"}, y(2001), 10); err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute(Query{
		GroupBy: []GroupBy{{Dim: "Geo", Level: "Admin"}},
		Grain:   GrainYear,
		Mode:    TCM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	for _, r := range res.Rows {
		if r.Values[0] != 10 {
			t.Errorf("row %v value %v, want 10", r.Groups, r.Values[0])
		}
	}
}

// TestNonCoveringHierarchySkips: a leaf with no ancestor at the grouped
// level silently falls out of the grouping.
func TestNonCoveringHierarchySkips(t *testing.T) {
	s := NewSchema("nc", Measure{Name: "m", Agg: Sum})
	d := NewDimension("D", "D")
	for _, mv := range []*MemberVersion{
		{ID: "top", Level: "Top", Valid: temporal.Always},
		{ID: "underTop", Level: "Leaf", Valid: temporal.Always},
		{ID: "orphan", Level: "Leaf", Valid: temporal.Always},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddRelationship(TemporalRelationship{From: "underTop", To: "top", Valid: temporal.Always}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	s.MustInsertFact(Coords{"underTop"}, y(2001), 5)
	s.MustInsertFact(Coords{"orphan"}, y(2001), 7)
	res, err := s.Execute(Query{
		GroupBy: []GroupBy{{Dim: "D", Level: "Top"}},
		Grain:   GrainYear,
		Mode:    TCM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != 5 {
		t.Errorf("non-covering rollup = %+v", res.Rows)
	}
}

// TestGroupByLeafLevelIncludesSelf: grouping by the leaf's own level
// returns the leaf itself (Q2 of the paper groups by Department).
func TestGroupByLeafLevelIncludesSelf(t *testing.T) {
	s := splitSchema(t)
	res, err := s.Execute(Query{
		GroupBy: []GroupBy{{Dim: "Org", Level: "Department"}},
		Grain:   GrainYear,
		Range:   temporal.Between(y(2001), ym(2001, 12)),
		Mode:    TCM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %+v", res.Rows)
	}
}

func TestDerivedLevelGroupBy(t *testing.T) {
	// A dimension without explicit level tags: group by "depth-0".
	s := NewSchema("dl", Measure{Name: "m", Agg: Sum})
	d := NewDimension("D", "D")
	for _, mv := range []*MemberVersion{
		{ID: "root", Valid: temporal.Always},
		{ID: "a", Valid: temporal.Always},
		{ID: "b", Valid: temporal.Always},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []TemporalRelationship{
		{From: "a", To: "root", Valid: temporal.Always},
		{From: "b", To: "root", Valid: temporal.Always},
	} {
		if err := d.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	s.MustInsertFact(Coords{"a"}, y(2001), 3)
	s.MustInsertFact(Coords{"b"}, y(2001), 4)
	res, err := s.Execute(Query{
		GroupBy: []GroupBy{{Dim: "D", Level: "depth-0"}},
		Grain:   GrainYear,
		Mode:    TCM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Values[0] != 7 {
		t.Errorf("derived-level rollup = %+v", res.Rows)
	}
}

func TestRowOrdering(t *testing.T) {
	s := splitSchema(t)
	res, err := s.Execute(q2TestQuery(s))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		if a.TimeKey > b.TimeKey {
			t.Fatal("rows must be sorted by time")
		}
		if a.TimeKey == b.TimeKey && a.Groups[0] > b.Groups[0] {
			t.Fatal("rows must be sorted by group within a time bucket")
		}
	}
}

func q2TestQuery(s *Schema) Query {
	return Query{
		GroupBy: []GroupBy{{Dim: "Org", Level: "Department"}},
		Grain:   GrainYear,
		Mode:    TCM(),
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{math.NaN(), "?"},
		{100, "100"},
		{0.5, "0.5"},
		{-3, "-3"},
	}
	for _, c := range cases {
		if got := FormatValue(c.in); got != c.want {
			t.Errorf("FormatValue(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestRowN pins what Row.N counts: emissions, one per mapped tuple and
// grouping combination landing in the row. A fact under two division
// versions that share the display name "Sales" emits into the one
// "Sales" row twice, so one fact of 10 reads as 20 with N = 2, in tcm
// and in the structure version alike.
func TestRowN(t *testing.T) {
	twoSales := func(t testing.TB) *Schema {
		s := NewSchema("twoSales", Measure{Name: "Amount", Agg: Sum})
		d := NewDimension("Org", "Org")
		for _, mv := range []*MemberVersion{
			{ID: "S1", Name: "Sales", Level: "Division", Valid: temporal.Since(y(2001))},
			{ID: "S2", Name: "Sales", Level: "Division", Valid: temporal.Since(y(2001))},
			{ID: "Smith", Level: "Department", Valid: temporal.Since(y(2001))},
		} {
			if err := d.AddVersion(mv); err != nil {
				t.Fatal(err)
			}
		}
		for _, to := range []MVID{"S1", "S2"} {
			if err := d.AddRelationship(TemporalRelationship{From: "Smith", To: to, Valid: temporal.Since(y(2001))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AddDimension(d); err != nil {
			t.Fatal(err)
		}
		s.MustInsertFact(Coords{"Smith"}, y(2001), 10)
		return s
	}
	byDivision := []GroupBy{{Dim: "Org", Level: "Division"}}
	for _, c := range []struct {
		name    string
		schema  func(testing.TB) *Schema
		groupBy []GroupBy
		version string // structure version ID to query in; "" for tcm
		group   string
		value   float64
		n       int
	}{
		{"grand total", splitSchema, nil, "", "", 850, 10},
		{"two Sales/tcm", twoSales, byDivision, "", "Sales", 20, 2},
		{"two Sales/V1", twoSales, byDivision, "V1", "Sales", 20, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.schema(t)
			mode := TCM()
			if c.version != "" {
				sv := s.VersionByID(c.version)
				if sv == nil {
					t.Fatalf("no structure version %s", c.version)
				}
				mode = InVersion(sv)
			}
			res, err := s.Execute(Query{GroupBy: c.groupBy, Grain: GrainAll, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("rows = %+v, want one", res.Rows)
			}
			r := res.Rows[0]
			if c.group != "" && (len(r.Groups) != 1 || r.Groups[0] != c.group) {
				t.Errorf("groups = %v, want [%s]", r.Groups, c.group)
			}
			if r.Values[0] != c.value || r.N != c.n {
				t.Errorf("value %v, N %d; want %v, %d", r.Values[0], r.N, c.value, c.n)
			}
		})
	}
}

func TestQueryFilters(t *testing.T) {
	s := splitSchema(t)
	// Slice to the Sales division: only departments under Sales at each
	// fact's instant contribute in tcm.
	res, err := s.Execute(Query{
		GroupBy: []GroupBy{{Dim: "Org", Level: "Department"}},
		Grain:   GrainYear,
		Filters: []Filter{{Dim: "Org", Members: []string{"Sales"}}},
		Mode:    TCM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Groups[0] == "Brian" {
			t.Errorf("Brian is never under Sales: %+v", r)
		}
	}
	// Smith contributes only in 2001 (under Sales then, R&D after).
	found2001, found2002 := false, false
	for _, r := range res.Rows {
		if r.Groups[0] == "Smith" {
			switch r.TimeKey {
			case "2001":
				found2001 = true
			case "2002":
				found2002 = true
			}
		}
	}
	if !found2001 || found2002 {
		t.Errorf("Smith slice wrong: 2001=%v 2002=%v", found2001, found2002)
	}
	// Dice by leaf names.
	res, err = s.Execute(Query{
		GroupBy: []GroupBy{{Dim: "Org", Level: "Department"}},
		Grain:   GrainYear,
		Filters: []Filter{{Dim: "Org", Members: []string{"Smith", "Brian"}}},
		Mode:    TCM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Groups[0] != "Smith" && r.Groups[0] != "Brian" {
			t.Errorf("unexpected member %q", r.Groups[0])
		}
	}
	// Filter in a version mode follows that version's structure: slicing
	// V1's Sales covers Smith even for 2002+ facts.
	v1 := s.VersionAt(y(2001))
	res, err = s.Execute(Query{
		GroupBy: []GroupBy{{Dim: "Org", Level: "Department"}},
		Grain:   GrainYear,
		Filters: []Filter{{Dim: "Org", Members: []string{"Sales"}}},
		Mode:    InVersion(v1),
	})
	if err != nil {
		t.Fatal(err)
	}
	smith2002 := false
	for _, r := range res.Rows {
		if r.Groups[0] == "Smith" && r.TimeKey == "2002" {
			smith2002 = true
		}
	}
	if !smith2002 {
		t.Error("in V1, Smith is under Sales for all instants")
	}
	// Unknown dimension in a filter fails.
	if _, err := s.Execute(Query{
		Filters: []Filter{{Dim: "zz"}},
		Mode:    TCM(),
	}); err == nil {
		t.Error("unknown filter dimension must fail")
	}
}

// TestConcurrentQueries exercises the derived caches from many
// goroutines; run with -race to verify the locking.
func TestConcurrentQueries(t *testing.T) {
	s := splitSchema(t)
	modes := s.Modes()
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for i := 0; i < 20; i++ {
				mode := modes[(g+i)%len(modes)]
				_, err := s.Execute(Query{
					GroupBy: []GroupBy{{Dim: "Org", Level: "Division"}},
					Grain:   GrainYear,
					Mode:    mode,
				})
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnknownLevelIsAnError: a GROUP BY level no member version of the
// dimension ever carries is a typo, not an empty answer; a level that
// exists at some instants only stays legal (non-covering, Definition 4).
func TestUnknownLevelIsAnError(t *testing.T) {
	s := orgSchema(t)
	if err := s.InsertFact(Coords{"Smith"}, y(2001), 50); err != nil {
		t.Fatal(err)
	}
	by := func(level string, mode Mode) Query {
		return Query{GroupBy: []GroupBy{{Dim: "Org", Level: level}}, Grain: GrainYear, Mode: mode}
	}
	_, err := s.Execute(by("Nonexistent", TCM()))
	if err == nil || err.Error() != `core: unknown level "Nonexistent" in dimension "Org"` {
		t.Fatalf("unknown level: err = %v", err)
	}
	if _, err := s.Execute(by("Nonexistent", InVersion(s.VersionAt(y(2001))))); err == nil {
		t.Fatal("unknown level in a version mode must fail")
	}
	// Explicit levels rule out the derived names.
	if _, err := s.Execute(by("depth-0", TCM())); err == nil {
		t.Fatal("a depth level on an explicitly levelled dimension must fail")
	}

	// A level carried from 2004 on: legal at every instant, empty before.
	d := s.Dimension("Org")
	if err := d.AddVersion(&MemberVersion{ID: "Group", Level: "Holding", Valid: temporal.Since(y(2004))}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute(by("Holding", TCM()))
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("a level not yet in existence: rows %v, err %v", res, err)
	}

	// One unlevelled member puts the dimension on derived depth levels:
	// depth-N is then the only legal form, whatever N.
	if err := d.AddVersion(&MemberVersion{ID: "Loose", Valid: temporal.Since(y(2001))}); err != nil {
		t.Fatal(err)
	}
	for _, level := range []string{"depth-0", "depth-1", "depth-7"} {
		if _, err := s.Execute(by(level, TCM())); err != nil {
			t.Errorf("%s on derived levels: %v", level, err)
		}
	}
	for _, level := range []string{"Division", "depth-", "depth-01", "depth--1", "Depth-1", ""} {
		if _, err := s.Execute(by(level, TCM())); err == nil {
			t.Errorf("%q on derived levels must fail", level)
		}
	}
}
