package core

import (
	"math"
	"testing"

	"mvolap/internal/temporal"
)

// twoDimSchema builds a schema with two independently evolving
// dimensions: the Org case study and a Channel dimension whose member
// "web" splits out of "direct" in 2003.
func twoDimSchema(t testing.TB) *Schema {
	t.Helper()
	s := NewSchema("2d", Measure{Name: "Amount", Agg: Sum})
	if err := s.AddDimension(buildOrg(t)); err != nil {
		t.Fatal(err)
	}
	ch := NewDimension("Channel", "Channel")
	for _, mv := range []*MemberVersion{
		{ID: "all", Level: "Top", Valid: temporal.Since(y(2001))},
		{ID: "direct", Level: "Channel", Valid: temporal.Between(y(2001), ym(2002, 12))},
		{ID: "store", Level: "Channel", Valid: temporal.Since(y(2003))},
		{ID: "web", Level: "Channel", Valid: temporal.Since(y(2003))},
	} {
		if err := ch.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []TemporalRelationship{
		{From: "direct", To: "all", Valid: temporal.Between(y(2001), ym(2002, 12))},
		{From: "store", To: "all", Valid: temporal.Since(y(2003))},
		{From: "web", To: "all", Valid: temporal.Since(y(2003))},
	} {
		if err := ch.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(ch); err != nil {
		t.Fatal(err)
	}
	for _, m := range []MappingRelationship{
		{From: "direct", To: "store",
			Forward:  UniformMapping(1, Linear{0.7}, ApproxMapping),
			Backward: UniformMapping(1, Identity, ExactMapping)},
		{From: "direct", To: "web",
			Forward:  UniformMapping(1, Linear{0.3}, ApproxMapping),
			Backward: UniformMapping(1, Identity, ExactMapping)},
		// Org mappings for the Jones split.
		{From: "Jones", To: "Bill",
			Forward:  UniformMapping(1, Linear{0.4}, ApproxMapping),
			Backward: UniformMapping(1, Identity, ExactMapping)},
		{From: "Jones", To: "Paul",
			Forward:  UniformMapping(1, Linear{0.6}, ApproxMapping),
			Backward: UniformMapping(1, Identity, ExactMapping)},
	} {
		if err := s.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	// Facts: (dept, channel, year).
	facts := []struct {
		dept, ch MVID
		yr       int
		amt      float64
	}{
		{"Jones", "direct", 2001, 100},
		{"Smith", "direct", 2001, 50},
		{"Bill", "store", 2003, 80},
		{"Bill", "web", 2003, 70},
		{"Smith", "web", 2003, 110},
	}
	for _, f := range facts {
		if err := s.InsertFact(Coords{f.dept, f.ch}, y(f.yr), f.amt); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestComposeVersionMixesDimensions(t *testing.T) {
	s := twoDimSchema(t)
	svs := s.StructureVersions()
	if len(svs) != 3 {
		t.Fatalf("structure versions = %d (want 3: 2001, 2002, 2003+)", len(svs))
	}
	// Compose: Org from the 2001 structure, Channel from the 2003 one.
	composed, err := s.ComposeVersion("X1", temporal.Since(y(2003)), map[DimID]string{
		"Org":     "V1",
		"Channel": "V3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if composed.Dimension("Org").Version("Bill") != nil {
		t.Error("composed Org must be the 2001 structure (no Bill)")
	}
	if composed.Dimension("Channel").Version("web") == nil {
		t.Error("composed Channel must be the 2003 structure (web present)")
	}

	// Query in the composed mode: departments as of 2001, channels as
	// of 2003.
	res, err := s.Execute(Query{
		GroupBy: []GroupBy{{Dim: "Org", Level: "Department"}, {Dim: "Channel", Level: "Channel"}},
		Grain:   GrainYear,
		Mode:    InVersion(composed),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	cfs := map[string]Confidence{}
	for _, r := range res.Rows() {
		key := r.TimeKey + "/" + r.Groups[0] + "/" + r.Groups[1]
		got[key] = r.Values[0]
		cfs[key] = r.CFs[0]
	}
	// 2001 Jones/direct 100 presents as Jones (valid in V1-pick) with
	// channel split onto store (70, am) and web (30, am).
	if got["2001/Jones/store"] != 70 || got["2001/Jones/web"] != 30 {
		t.Errorf("2001 Jones channel split = %v", got)
	}
	if cfs["2001/Jones/store"] != ApproxMapping {
		t.Errorf("store cf = %v", cfs["2001/Jones/store"])
	}
	// 2003 Bill data maps back onto Jones (Org pick is 2001) keeping
	// its 2003 channels: store 80, web 70 (em).
	if got["2003/Jones/store"] != 80 || cfs["2003/Jones/store"] != ExactMapping {
		t.Errorf("2003 back-mapped store = %v (%v)", got["2003/Jones/store"], cfs["2003/Jones/store"])
	}
	// Smith web 110 stays source in both picks.
	if got["2003/Smith/web"] != 110 || cfs["2003/Smith/web"] != SourceData {
		t.Errorf("2003 Smith web = %v (%v)", got["2003/Smith/web"], cfs["2003/Smith/web"])
	}
}

func TestComposeVersionErrors(t *testing.T) {
	s := twoDimSchema(t)
	if _, err := s.ComposeVersion("", temporal.Since(y(2003)), nil); err == nil {
		t.Error("empty id must fail")
	}
	if _, err := s.ComposeVersion("X", temporal.Interval{Start: 2, End: 1}, nil); err == nil {
		t.Error("empty interval must fail")
	}
	if _, err := s.ComposeVersion("X", temporal.Since(y(2003)), map[DimID]string{"Org": "V1"}); err == nil {
		t.Error("missing pick must fail")
	}
	if _, err := s.ComposeVersion("X", temporal.Since(y(2003)), map[DimID]string{
		"Org": "V9", "Channel": "V1",
	}); err == nil {
		t.Error("unknown version must fail")
	}
}

// TestComposeVersionRefusesInferredID: mode caches key on the version
// ID, so a composed version named like an inferred mode would have its
// table served to queries in the real one.
func TestComposeVersionRefusesInferredID(t *testing.T) {
	s := twoDimSchema(t)
	picks := map[DimID]string{"Org": "V1", "Channel": "V3"}
	for _, id := range []string{"tcm", "V1", "V3"} {
		if _, err := s.ComposeVersion(id, temporal.Since(y(2003)), picks); err == nil {
			t.Errorf("ComposeVersion(%q) must fail", id)
		}
	}
	if _, err := s.ComposeVersion("V4", temporal.Since(y(2003)), picks); err != nil {
		t.Errorf("ComposeVersion(V4): %v", err)
	}
}

func TestAggregateMemberTCM(t *testing.T) {
	s := splitSchema(t)
	// Sales in 2001 (tcm): Jones 100 + Smith 50.
	vals, cfs, err := s.AggregateMember("Sales", y(2001), TCM())
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 150 || cfs[0] != SourceData {
		t.Errorf("Sales@2001 = %v (%v)", vals[0], cfs[0])
	}
	// A leaf aggregates to itself.
	vals, _, err = s.AggregateMember("Brian", y(2002), TCM())
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 50 {
		t.Errorf("Brian@2002 = %v", vals[0])
	}
}

func TestAggregateMemberVersionMode(t *testing.T) {
	s := splitSchema(t)
	v2 := s.VersionAt(y(2002))
	// Sales in the 2002 structure at 2003: Bill+Paul map back to Jones
	// → 200 (em).
	vals, cfs, err := s.AggregateMember("Sales", y(2003), InVersion(v2))
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 200 || cfs[0] != ExactMapping {
		t.Errorf("Sales@2003 in V2 = %v (%v)", vals[0], cfs[0])
	}
	// No data: NaN with uk.
	vals, cfs, err = s.AggregateMember("Sales", y(2010), InVersion(v2))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(vals[0]) || cfs[0] != UnknownMapping {
		t.Errorf("empty aggregate = %v (%v)", vals[0], cfs[0])
	}
}

func TestAggregateMemberErrors(t *testing.T) {
	s := splitSchema(t)
	if _, _, err := s.AggregateMember("zz", y(2001), TCM()); err == nil {
		t.Error("unknown member must fail")
	}
	if _, _, err := s.AggregateMember("Sales", y(2001), Mode{Kind: VersionKind}); err == nil {
		t.Error("nil version must fail")
	}
	v3 := s.VersionAt(y(2003))
	if _, _, err := s.AggregateMember("Jones", y(2001), InVersion(v3)); err == nil {
		t.Error("member absent from the version must fail")
	}
}

// TestAggregateMemberCountsInnerFacts pins the reading of Definition 12
// that AggregateMember shares with every query: a member's aggregate
// folds the tuples of f'|mode on the member and on every member under
// it. By Definition 5 facts sit on leaves, where that is the fold over
// the leaves under the member; but InsertFact checks validity only, so
// in tcm a fact may sit on a member with children at its instant, and
// it counts, as it does in a grouped query's rollup. A version mode
// presents on the version's leaves alone: there such a fact has no
// target and is dropped.
func TestAggregateMemberCountsInnerFacts(t *testing.T) {
	s := splitSchema(t)
	if err := s.InsertFact(Coords{"Sales"}, y(2001), 7); err != nil {
		t.Fatal(err)
	}
	vals, cfs, err := s.AggregateMember("Sales", y(2001), TCM())
	if err != nil || vals[0] != 157 || cfs[0] != SourceData {
		t.Fatalf("Sales@2001 in tcm = %v (%v), %v; want Jones 100 + Smith 50 + Sales 7 (sd)", vals, cfs, err)
	}
	res, err := s.Execute(Query{Range: temporal.Between(y(2001), y(2001)), Grain: GrainAll, Mode: TCM(),
		Filters: []Filter{{Dim: "Org", Members: []string{"Sales"}}}})
	if err != nil || res.Len() != 1 || res.Values(0)[0] != 157 {
		t.Fatalf("the diced grand total = %v, %v; want AggregateMember's 157", res, err)
	}
	v1 := s.VersionAt(y(2001))
	vals, _, err = s.AggregateMember("Sales", y(2001), InVersion(v1))
	if err != nil || vals[0] != 150 {
		t.Fatalf("Sales@2001 in %s = %v, %v; want 150, the fact on Sales dropped", v1.ID, vals, err)
	}
}
