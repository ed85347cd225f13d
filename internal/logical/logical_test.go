package logical

import (
	"fmt"
	"strings"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/rolap"
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

func TestTMPDimension(t *testing.T) {
	s := caseSchema(t)
	tmp := TMPDimensionOf(s)
	want := []string{"tcm", "V1", "V2", "V3"}
	if len(tmp.Members) != len(want) {
		t.Fatalf("TMP members = %v", tmp.Members)
	}
	for i, w := range want {
		if tmp.Members[i] != w {
			t.Errorf("member[%d] = %q, want %q", i, tmp.Members[i], w)
		}
	}
}

func TestLogicalMeasures(t *testing.T) {
	s := caseSchema(t)
	ms := LogicalMeasures(s)
	if len(ms) != 2 {
		t.Fatalf("measures = %v", ms)
	}
	if ms[0].Name != "Amount" || ms[1].Name != "cf_Amount" {
		t.Errorf("measures = %v", ms)
	}
	if ms[1].Agg != core.Max {
		t.Error("cf measure must aggregate with the pessimistic Max (paper coding is ordered)")
	}
}

// TestRewriteReclassify rewrites the Smith 2002 reclassification as the
// logical level must (§4.2): a new version Smith@01/2002 appears,
// linked by a source-data equivalence mapping.
func TestRewriteReclassify(t *testing.T) {
	s, d := smithWarehouse(t)
	a := evolution.NewApplier(s)
	created, err := RewriteReclassify(a, s, "Org", "Smith", temporal.Year(2002),
		[]core.MVID{"Sales"}, []core.MVID{"R&D"})
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 1 || created[0] != "Smith@01/2002" {
		t.Fatalf("created = %v", created)
	}
	// The old version ends at 12/2001.
	if d.Version("Smith").Valid.End != temporal.YM(2001, 12) {
		t.Errorf("old version end = %v", d.Version("Smith").Valid.End)
	}
	// The new version hangs under R&D.
	ps := d.ParentsAt("Smith@01/2002", temporal.Year(2002))
	if len(ps) != 1 || ps[0].ID != "R&D" {
		t.Errorf("new version parents = %v", ps)
	}
	// Equivalence mapping with source-data confidence exists.
	if len(s.Mappings()) != 1 {
		t.Fatalf("mappings = %v", s.Mappings())
	}
	mp := s.Mappings()[0]
	if mp.From != "Smith" || mp.To != "Smith@01/2002" || mp.Forward[0].CF != core.SourceData {
		t.Errorf("equivalence mapping = %v", mp)
	}
	// Facts recorded on the old version present as source data in the
	// new structure version.
	s.MustInsertFact(core.Coords{"Smith"}, temporal.Year(2001), 50)
	v2 := s.VersionAt(temporal.Year(2002))
	var got []string
	if _, err := s.Present(core.InVersion(v2), func(f *core.MappedFact) bool {
		if f.Time == temporal.Year(2001) && f.Coords.Equal(core.Coords{"Smith@01/2002"}) {
			got = append(got, fmt.Sprint(f.Values[0], " ", f.CFs[0]))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint(50.0, " ", core.SourceData); len(got) != 1 || got[0] != want {
		t.Errorf("mapped presentation = %v, want [%s]", got, want)
	}
}

// smithWarehouse is the 2001 organization with Smith under Sales since
// 2001, and no facts.
func smithWarehouse(t *testing.T) (*core.Schema, *core.Dimension) {
	t.Helper()
	s := core.NewSchema("org", core.Measure{Name: "Amount", Agg: core.Sum})
	d := core.NewDimension("Org", "Org")
	for _, mv := range []*core.MemberVersion{
		{ID: "Sales", Name: "Sales", Level: "Division", Valid: temporal.Since(temporal.Year(2001))},
		{ID: "R&D", Name: "R&D", Level: "Division", Valid: temporal.Since(temporal.Year(2001))},
		{ID: "Smith", Name: "Dpt.Smith", Level: "Department", Valid: temporal.Since(temporal.Year(2001))},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddRelationship(core.TemporalRelationship{
		From: "Smith", To: "Sales", Valid: temporal.Since(temporal.Year(2001)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	return s, d
}

// TestRewriteReclassifyRefusedChangesNothing: a rewrite that cannot end
// the version — a fact of Smith at 2003 holds it past the change —
// returns Exclude's error and leaves the structure versions, the facts,
// the dimension and the applier's log as it found them, its Insert
// included.
func TestRewriteReclassifyRefusedChangesNothing(t *testing.T) {
	s, d := smithWarehouse(t)
	s.MustInsertFact(core.Coords{"Smith"}, temporal.Year(2003), 50)
	a := evolution.NewApplier(s)
	versions := fmt.Sprint(s.StructureVersions())
	rels, log := fmt.Sprint(d.Relationships()), fmt.Sprint(a.Log())
	_, err := RewriteReclassify(a, s, "Org", "Smith", temporal.Year(2002),
		[]core.MVID{"Sales"}, []core.MVID{"R&D"})
	if err == nil || !strings.Contains(err.Error(), `cannot end "Smith" at 12/2001: the fact at Smith 01/2003 holds it`) {
		t.Fatalf("rewrite error = %v, want the Exclude refusal", err)
	}
	if got := fmt.Sprint(s.StructureVersions()); got != versions {
		t.Errorf("structure versions = %s, want %s", got, versions)
	}
	if n := s.Facts().Len(); n != 1 {
		t.Errorf("%d facts, want 1", n)
	}
	if got := fmt.Sprint(a.Log()); got != log {
		t.Errorf("applier log = %s, want %s", got, log)
	}
	if got := fmt.Sprint(d.Relationships()); got != rels || d.Version("Smith@01/2002") != nil || len(s.Mappings()) != 0 {
		t.Errorf("dimension changed: relationships %s, want %s; %d mappings", got, rels, len(s.Mappings()))
	}
}

// TestRewriteReclassifyRecursive: reclassifying a non-leaf version
// re-versions all its descendants, the §4.2 consequence the paper
// flags as "not satisfying" but required by attribute-based links.
func TestRewriteReclassifyRecursive(t *testing.T) {
	s := core.NewSchema("org", core.Measure{Name: "m", Agg: core.Sum})
	d := core.NewDimension("D", "D")
	for _, mv := range []*core.MemberVersion{
		{ID: "top1", Name: "Top1", Level: "Top", Valid: temporal.Since(temporal.Year(2001))},
		{ID: "top2", Name: "Top2", Level: "Top", Valid: temporal.Since(temporal.Year(2001))},
		{ID: "mid", Name: "Mid", Level: "Mid", Valid: temporal.Since(temporal.Year(2001))},
		{ID: "leafA", Name: "LeafA", Level: "Leaf", Valid: temporal.Since(temporal.Year(2001))},
		{ID: "leafB", Name: "LeafB", Level: "Leaf", Valid: temporal.Since(temporal.Year(2001))},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []core.TemporalRelationship{
		{From: "mid", To: "top1", Valid: temporal.Since(temporal.Year(2001))},
		{From: "leafA", To: "mid", Valid: temporal.Since(temporal.Year(2001))},
		{From: "leafB", To: "mid", Valid: temporal.Since(temporal.Year(2001))},
	} {
		if err := d.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	a := evolution.NewApplier(s)
	created, err := RewriteReclassify(a, s, "D", "mid", temporal.Year(2002),
		[]core.MVID{"top1"}, []core.MVID{"top2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 3 { // mid', leafA', leafB'
		t.Fatalf("created = %v", created)
	}
	// Descendant versions hang under the new mid version.
	newMid := created[0]
	kids := d.ChildrenAt(newMid, temporal.Year(2002))
	if len(kids) != 2 {
		t.Errorf("new mid children = %v", kids)
	}
	// Old leaves ended.
	if d.Version("leafA").Valid.End != temporal.YM(2001, 12) {
		t.Error("old leafA must end at 12/2001")
	}
	// Equivalence mappings exist for every re-versioned member.
	if len(s.Mappings()) != 3 {
		t.Errorf("mappings = %d, want 3", len(s.Mappings()))
	}
	if err := s.Validate(); err != nil {
		t.Errorf("schema invalid after recursive rewrite: %v", err)
	}
}

// TestRewriteReclassifyMultipleHierarchy: under a multiple hierarchy
// (Definition 4) a descendant reached through two re-versioned parents
// is re-versioned once, under both new versions, and keeps its parent
// outside the reclassified subtree. Top → {A, B} → Leaf, and Leaf under
// Other too: rewriting Top at 2002 creates Top', A', B' and one Leaf',
// whose parents are Other, A' and B'.
func TestRewriteReclassifyMultipleHierarchy(t *testing.T) {
	s := core.NewSchema("org", core.Measure{Name: "m", Agg: core.Sum})
	d := core.NewDimension("D", "D")
	since := temporal.Since(temporal.Year(2001))
	for _, id := range []core.MVID{"top", "other", "a", "b", "leaf"} {
		if err := d.AddVersion(&core.MemberVersion{ID: id, Valid: since}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][2]core.MVID{{"a", "top"}, {"b", "top"}, {"leaf", "a"}, {"leaf", "b"}, {"leaf", "other"}} {
		if err := d.AddRelationship(core.TemporalRelationship{From: r[0], To: r[1], Valid: since}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	s.MustInsertFact(core.Coords{"leaf"}, temporal.Year(2001), 5)
	a := evolution.NewApplier(s)
	created, err := RewriteReclassify(a, s, "D", "top", temporal.Year(2002), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(created); got != "[top@01/2002 a@01/2002 b@01/2002 leaf@01/2002]" {
		t.Fatalf("created = %s, want Top', A', B' and one Leaf'", got)
	}
	if got := names(d.ParentsAt("leaf@01/2002", temporal.Year(2002))); got != "[other a@01/2002 b@01/2002]" {
		t.Errorf("Leaf' parents = %s, want other and both new versions", got)
	}
	if got := names(d.ChildrenAt("top@01/2002", temporal.Year(2002))); got != "[a@01/2002 b@01/2002]" {
		t.Errorf("Top' children = %s", got)
	}
	if d.Version("leaf").Valid.End != temporal.YM(2001, 12) {
		t.Error("the old leaf must end at 12/2001")
	}
	if len(s.Mappings()) != 4 {
		t.Errorf("mappings = %d, want one per re-versioned member", len(s.Mappings()))
	}
	if err := s.Validate(); err != nil {
		t.Errorf("schema invalid after the rewrite: %v", err)
	}
}

// names lists the IDs of the member versions.
func names(mvs []*core.MemberVersion) string {
	ids := make([]core.MVID, len(mvs))
	for i, mv := range mvs {
		ids[i] = mv.ID
	}
	return fmt.Sprint(ids)
}

func TestRewriteReclassifyErrors(t *testing.T) {
	s := caseSchema(t)
	a := evolution.NewApplier(s)
	if _, err := RewriteReclassify(a, s, "zz", "Smith", temporal.Year(2002), nil, nil); err == nil {
		t.Error("unknown dimension must fail")
	}
	if _, err := RewriteReclassify(a, s, "Org", "zz", temporal.Year(2002), nil, nil); err == nil {
		t.Error("unknown member must fail")
	}
	// Bill is not valid before 2003.
	if _, err := RewriteReclassify(a, s, "Org", casestudy.Bill, temporal.Year(2002), nil, nil); err == nil {
		t.Error("member not valid before the change must fail")
	}
}

func TestBuildParentChild(t *testing.T) {
	s := caseSchema(t)
	db := rolap.NewDatabase("dw")
	names, err := BuildDimensionTables(s, db, ParentChild)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "dim_Org_pc" {
		t.Fatalf("names = %v", names)
	}
	tab := db.Table("dim_Org_pc")
	// 6 relationship rows + 2 unlinked roots (Sales, R&D).
	if tab.Len() != 8 {
		t.Errorf("rows = %d, want 8\n%s", tab.Len(), tab.Relation())
	}
	rel, err := db.Query("SELECT name, parent_id FROM dim_Org_pc WHERE mv_id = 'Dpt.Smith_id' ORDER BY valid_from")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 2 {
		t.Fatalf("Smith rows = %d, want 2 (two parent links)", len(rel.Rows))
	}
	if rel.Rows[0][1] != "Sales_id" || rel.Rows[1][1] != "R&D_id" {
		t.Errorf("Smith parents = %v", rel.Rows)
	}
}

func TestBuildStar(t *testing.T) {
	s := caseSchema(t)
	db := rolap.NewDatabase("dw")
	names, err := BuildDimensionTables(s, db, Star)
	if err != nil {
		t.Fatal(err)
	}
	tab := db.Table(names[0])
	if tab == nil {
		t.Fatal("star table missing")
	}
	// Smith's row in V1 carries ancestor Sales; in V2 it carries R&D.
	check := func(sv, anc string) {
		rel, err := db.Query("SELECT anc_Division FROM " + names[0] +
			" WHERE mv_id = 'Dpt.Smith_id' AND sv = '" + sv + "'")
		if err != nil {
			t.Fatal(err)
		}
		if len(rel.Rows) != 1 || rel.Rows[0][0] != anc {
			t.Errorf("%s ancestor = %v, want %s", sv, rel.Rows, anc)
		}
	}
	check("V1", "Sales")
	check("V2", "R&D")
	// Divisions carry themselves as their Division ancestor.
	rel, err := db.Query("SELECT anc_Division FROM " + names[0] + " WHERE mv_id = 'Sales_id' AND sv = 'V1'")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0] != "Sales" {
		t.Errorf("self ancestor = %v", rel.Rows)
	}
	// Redundancy: member versions repeat across structure versions.
	all, _ := db.Query("SELECT COUNT(*) AS n FROM " + names[0])
	if all.Rows[0][0].(int64) <= 7 {
		t.Errorf("star rows = %v; must exceed the 7 member versions", all.Rows[0][0])
	}
}

func TestBuildSnowflake(t *testing.T) {
	s := caseSchema(t)
	db := rolap.NewDatabase("dw")
	names, err := BuildDimensionTables(s, db, Snowflake)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("snowflake tables = %v", names)
	}
	dept := db.Table("dim_Org_Department")
	div := db.Table("dim_Org_Division")
	if dept == nil || div == nil {
		t.Fatal("level tables missing")
	}
	// Department rows point at division rows.
	rel, err := db.Query("SELECT parent_id FROM dim_Org_Department WHERE sv = 'V2' AND mv_id = 'Dpt.Smith_id'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 || rel.Rows[0][0] != "R&D_id" {
		t.Errorf("snowflake parent = %v", rel.Rows)
	}
	// Divisions are roots (NULL parent).
	rel, err = db.Query("SELECT parent_id FROM dim_Org_Division WHERE sv = 'V1' AND mv_id = 'Sales_id'")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0] != nil {
		t.Errorf("division parent = %v", rel.Rows[0][0])
	}
}

func TestLayoutString(t *testing.T) {
	if Star.String() != "star" || Snowflake.String() != "snowflake" || ParentChild.String() != "parent-child" {
		t.Error("layout names wrong")
	}
	if Layout(9).String() == "" {
		t.Error("out-of-range layout String")
	}
	db := rolap.NewDatabase("x")
	if _, err := BuildDimensionTables(caseSchema(t), db, Layout(9)); err == nil {
		t.Error("unknown layout must fail")
	}
}
