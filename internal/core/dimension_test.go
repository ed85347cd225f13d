package core

import (
	"fmt"
	"strings"
	"testing"

	"mvolap/internal/temporal"
)

func y(year int) temporal.Instant   { return temporal.Year(year) }
func ym(yr, m int) temporal.Instant { return temporal.YM(yr, m) }

// buildOrg replicates the case-study Org dimension inside the package
// (the casestudy package cannot be imported here without a cycle in
// white-box tests).
func buildOrg(t testing.TB) *Dimension {
	t.Helper()
	d := NewDimension("Org", "Org")
	add := func(id MVID, level string, valid temporal.Interval) {
		if err := d.AddVersion(&MemberVersion{ID: id, Member: string(id), Level: level, Valid: valid}); err != nil {
			t.Fatal(err)
		}
	}
	add("Sales", "Division", temporal.Since(y(2001)))
	add("R&D", "Division", temporal.Since(y(2001)))
	add("Jones", "Department", temporal.Between(y(2001), ym(2002, 12)))
	add("Smith", "Department", temporal.Since(y(2001)))
	add("Brian", "Department", temporal.Since(y(2001)))
	add("Bill", "Department", temporal.Since(y(2003)))
	add("Paul", "Department", temporal.Since(y(2003)))
	rels := []TemporalRelationship{
		{From: "Jones", To: "Sales", Valid: temporal.Between(y(2001), ym(2002, 12))},
		{From: "Smith", To: "Sales", Valid: temporal.Between(y(2001), ym(2001, 12))},
		{From: "Smith", To: "R&D", Valid: temporal.Since(y(2002))},
		{From: "Brian", To: "R&D", Valid: temporal.Since(y(2001))},
		{From: "Bill", To: "Sales", Valid: temporal.Since(y(2003))},
		{From: "Paul", To: "Sales", Valid: temporal.Since(y(2003))},
	}
	for _, r := range rels {
		if err := d.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func names(mvs []*MemberVersion) []string {
	out := make([]string, len(mvs))
	for i, mv := range mvs {
		out[i] = string(mv.ID)
	}
	return out
}

func TestDimensionSnapshots(t *testing.T) {
	d := buildOrg(t)
	// Table 1: the organization in 2001.
	if got := names(d.LeavesAt(y(2001))); strings.Join(got, ",") != "Jones,Smith,Brian" {
		t.Errorf("2001 leaves = %v", got)
	}
	parents := d.ParentsAt("Smith", y(2001))
	if len(parents) != 1 || parents[0].ID != "Sales" {
		t.Errorf("Smith's 2001 parent = %v", names(parents))
	}
	// Table 2: Smith reclassified under R&D in 2002.
	parents = d.ParentsAt("Smith", y(2002))
	if len(parents) != 1 || parents[0].ID != "R&D" {
		t.Errorf("Smith's 2002 parent = %v", names(parents))
	}
	// Table 7: 2003 has Bill and Paul, no Jones.
	if got := names(d.LeavesAt(y(2003))); strings.Join(got, ",") != "Smith,Brian,Bill,Paul" {
		t.Errorf("2003 leaves = %v", got)
	}
	if mv := d.Version("Jones"); mv.ValidAt(y(2003)) {
		t.Error("Jones must not be valid in 2003")
	}
}

func TestAddVersionErrors(t *testing.T) {
	d := NewDimension("D", "D")
	if err := d.AddVersion(&MemberVersion{ID: "", Valid: temporal.Always}); err == nil {
		t.Error("empty ID must be rejected")
	}
	if err := d.AddVersion(&MemberVersion{ID: "a", Valid: temporal.Always}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddVersion(&MemberVersion{ID: "a", Valid: temporal.Always}); err == nil {
		t.Error("duplicate ID must be rejected")
	}
	if err := d.AddVersion(&MemberVersion{ID: "b", Valid: temporal.Between(y(2002), y(2001))}); err == nil {
		t.Error("empty validity must be rejected")
	}
}

func TestAddRelationshipErrors(t *testing.T) {
	d := NewDimension("D", "D")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.AddVersion(&MemberVersion{ID: "child", Valid: temporal.Between(y(2001), ym(2002, 12))}))
	must(d.AddVersion(&MemberVersion{ID: "parent", Valid: temporal.Between(y(2002), ym(2003, 12))}))

	cases := []struct {
		name string
		rel  TemporalRelationship
	}{
		{"unknown child", TemporalRelationship{From: "x", To: "parent", Valid: temporal.Between(y(2002), ym(2002, 12))}},
		{"unknown parent", TemporalRelationship{From: "child", To: "y", Valid: temporal.Between(y(2002), ym(2002, 12))}},
		{"self loop", TemporalRelationship{From: "child", To: "child", Valid: temporal.Between(y(2002), ym(2002, 12))}},
		{"empty validity", TemporalRelationship{From: "child", To: "parent", Valid: temporal.Between(y(2003), y(2002))}},
		// Definition 2: valid time must lie within the intersection
		// [01/2002, 12/2002] of the members' validities.
		{"exceeds intersection", TemporalRelationship{From: "child", To: "parent", Valid: temporal.Between(y(2001), ym(2002, 12))}},
	}
	for _, c := range cases {
		if err := d.AddRelationship(c.rel); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	ok := TemporalRelationship{From: "child", To: "parent", Valid: temporal.Between(y(2002), ym(2002, 12))}
	if err := d.AddRelationship(ok); err != nil {
		t.Errorf("valid relationship rejected: %v", err)
	}
}

func TestLeafVersions(t *testing.T) {
	d := buildOrg(t)
	var leaves []string
	for _, mv := range d.Versions() {
		if d.IsLeafVersion(mv.ID) {
			leaves = append(leaves, string(mv.ID))
		}
	}
	want := map[string]bool{"Jones": true, "Smith": true, "Brian": true, "Bill": true, "Paul": true}
	if len(leaves) != len(want) {
		t.Fatalf("leaf versions = %v", leaves)
	}
	for _, l := range leaves {
		if !want[l] {
			t.Errorf("unexpected leaf %q", l)
		}
	}
	if d.IsLeafVersion("Sales") {
		t.Error("Sales has children at all instants; not a leaf version")
	}
	if d.IsLeafVersion("nope") {
		t.Error("unknown ID cannot be a leaf version")
	}
}

// TestLeafVersionTemporalSubtlety: a member with children at one instant
// but none at another is still a Leaf Member Version per the paper
// ("no children at, at least, one instant").
func TestLeafVersionTemporalSubtlety(t *testing.T) {
	d := NewDimension("D", "D")
	for _, v := range []*MemberVersion{
		{ID: "p", Valid: temporal.Since(y(2001))},
		{ID: "c", Valid: temporal.Between(y(2001), ym(2001, 12))},
	} {
		if err := d.AddVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddRelationship(TemporalRelationship{From: "c", To: "p", Valid: temporal.Between(y(2001), ym(2001, 12))}); err != nil {
		t.Fatal(err)
	}
	if !d.IsLeafVersion("p") {
		t.Error("p is childless from 2002 on; it must be a leaf version")
	}
	if !d.IsLeafVersion("c") {
		t.Error("c never has children; it must be a leaf version")
	}
}

func TestExplicitLevels(t *testing.T) {
	d := buildOrg(t)
	if !d.HasExplicitLevels() {
		t.Fatal("Org carries explicit level tags")
	}
	levels := d.LevelsAt(y(2001))
	if len(levels) != 2 {
		t.Fatalf("got %d levels, want 2", len(levels))
	}
	if levels[0].Name != "Division" || levels[1].Name != "Department" {
		t.Errorf("level order = %s, %s; want Division, Department", levels[0].Name, levels[1].Name)
	}
	if len(levels[0].Members) != 2 || len(levels[1].Members) != 3 {
		t.Errorf("level sizes = %d, %d; want 2, 3", len(levels[0].Members), len(levels[1].Members))
	}
	if got := d.LevelOf("Smith", y(2001)); got != "Department" {
		t.Errorf("LevelOf(Smith) = %q", got)
	}
	if got := d.LevelOf("Smith", y(1999)); got != "" {
		t.Errorf("LevelOf before validity = %q", got)
	}
	if ls := d.LevelsAt(y(2003)); len(ls) == 0 || ls[0].Name != "Division" || len(ls[0].Members) != 2 {
		t.Errorf("levels in 2003 = %+v; want two divisions first", ls)
	}
}

func TestDerivedLevels(t *testing.T) {
	// Same structure without level tags: levels fall back to DAG depth
	// (Definition 4, second strategy).
	d := NewDimension("D", "D")
	for _, id := range []MVID{"root", "mid", "leaf1", "leaf2"} {
		if err := d.AddVersion(&MemberVersion{ID: id, Valid: temporal.Always}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []TemporalRelationship{
		{From: "mid", To: "root", Valid: temporal.Always},
		{From: "leaf1", To: "mid", Valid: temporal.Always},
		{From: "leaf2", To: "mid", Valid: temporal.Always},
	} {
		if err := d.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	if d.HasExplicitLevels() {
		t.Fatal("no explicit levels expected")
	}
	levels := d.LevelsAt(y(2001))
	if len(levels) != 3 {
		t.Fatalf("got %d depth levels, want 3", len(levels))
	}
	if levels[0].Name != "depth-0" || levels[2].Name != "depth-2" {
		t.Errorf("level names = %v, %v", levels[0].Name, levels[2].Name)
	}
	if got := d.LevelOf("leaf1", y(2001)); got != "depth-2" {
		t.Errorf("LevelOf(leaf1) = %q", got)
	}
	if got := d.DepthAt("mid", y(2001)); got != 1 {
		t.Errorf("DepthAt(mid) = %d", got)
	}
	if got := d.DepthAt("nope", y(2001)); got != -1 {
		t.Errorf("DepthAt(unknown) = %d", got)
	}
}

// TestMultipleHierarchies: a leaf with two parents (multiple hierarchy),
// supported because the model imposes no explicit schema (§2.3).
func TestMultipleHierarchies(t *testing.T) {
	d := NewDimension("Geo", "Geo")
	for _, v := range []*MemberVersion{
		{ID: "city", Level: "City", Valid: temporal.Always},
		{ID: "state", Level: "State", Valid: temporal.Always},
		{ID: "salesRegion", Level: "Region", Valid: temporal.Always},
	} {
		if err := d.AddVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []TemporalRelationship{
		{From: "city", To: "state", Valid: temporal.Always},
		{From: "city", To: "salesRegion", Valid: temporal.Always},
	} {
		if err := d.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	ps := d.ParentsAt("city", y(2001))
	if len(ps) != 2 {
		t.Fatalf("city parents = %v", names(ps))
	}
	if err := d.Validate(); err != nil {
		t.Errorf("multiple hierarchy must validate: %v", err)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	d := NewDimension("D", "D")
	for _, id := range []MVID{"a", "b"} {
		if err := d.AddVersion(&MemberVersion{ID: id, Valid: temporal.Always}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddRelationship(TemporalRelationship{From: "a", To: "b", Valid: temporal.Always}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRelationship(TemporalRelationship{From: "b", To: "a", Valid: temporal.Always}); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err == nil {
		t.Error("cycle must fail validation")
	}
}

func TestRestrict(t *testing.T) {
	d := buildOrg(t)
	v1 := d.Restrict(temporal.Between(y(2001), ym(2001, 12)))
	if v1.Version("Bill") != nil {
		t.Error("Bill must not be in the 2001 restriction")
	}
	ps := v1.ParentsAt("Smith", y(2001))
	if len(ps) != 1 || ps[0].ID != "Sales" {
		t.Errorf("restricted Smith parent = %v", names(ps))
	}
	// Restriction requires validity over the WHOLE interval: Jones's
	// relationship to Sales ends 12/2002, so restricting over
	// [01/2002, 12/2003] keeps neither Jones (invalid from 2003) nor the
	// Smith->Sales relationship (ends 12/2001).
	wide := d.Restrict(temporal.Between(y(2002), ym(2003, 12)))
	if wide.Version("Jones") != nil {
		t.Error("Jones is not valid across the whole of 2002-2003")
	}
	if got := wide.ParentsAt("Smith", y(2002)); len(got) != 1 || got[0].ID != "R&D" {
		t.Errorf("Smith parents in wide restriction = %v", names(got))
	}
	// Mutating the restriction must not affect the original.
	v1.Version("Smith").Attrs = map[string]string{"x": "y"}
	if d.Version("Smith").Attrs != nil {
		t.Error("Restrict must deep-copy member versions")
	}
}

// TestOverlappingVersions: Definition 1 allows several valid versions of
// one member at the same instant — no exact history partition needed.
func TestOverlappingVersions(t *testing.T) {
	d := NewDimension("D", "D")
	for _, v := range []*MemberVersion{
		{ID: "v1", Member: "M", Valid: temporal.Between(y(2001), ym(2002, 12))},
		{ID: "v2", Member: "M", Valid: temporal.Between(y(2002), ym(2003, 12))},
	} {
		if err := d.AddVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	at := d.VersionsAt(y(2002))
	if len(at) != 2 {
		t.Fatalf("expected both overlapping versions valid in 2002, got %v", names(at))
	}
	if err := d.Validate(); err != nil {
		t.Errorf("overlap must be legal: %v", err)
	}
}

func TestElementaryIntervals(t *testing.T) {
	d := buildOrg(t)
	elems := d.ElementaryIntervals()
	want := []temporal.Interval{
		temporal.Between(y(2001), ym(2001, 12)),
		temporal.Between(y(2002), ym(2002, 12)),
		temporal.Since(y(2003)),
	}
	if len(elems) != len(want) {
		t.Fatalf("elementary intervals = %v", elems)
	}
	for i := range want {
		if !elems[i].Equal(want[i]) {
			t.Errorf("elem[%d] = %v, want %v", i, elems[i], want[i])
		}
	}
}

func TestMemberVersionString(t *testing.T) {
	mv := &MemberVersion{ID: "Dpt.Jones_id", Member: "Dpt.Jones", Level: "Department",
		Valid: temporal.Between(y(2001), ym(2002, 12))}
	got := mv.String()
	want := `<Dpt.Jones_id, "Dpt.Jones", Department, 01/2001, 12/2002>`
	if got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
	r := TemporalRelationship{From: "a", To: "b", Valid: temporal.Since(y(2003))}
	if r.String() != "<a, b, 01/2003, Now>" {
		t.Errorf("rel String = %s", r.String())
	}
}

func TestSetEnd(t *testing.T) {
	d := buildOrg(t)
	if err := d.SetEnd("Brian", ym(2003, 12)); err != nil {
		t.Fatal(err)
	}
	if d.Version("Brian").Valid.End != ym(2003, 12) {
		t.Error("SetEnd did not truncate the member version")
	}
	for _, r := range d.Relationships() {
		if r.From == "Brian" && r.Valid.End > ym(2003, 12) {
			t.Error("SetEnd must truncate relationships too")
		}
	}
	if err := d.SetEnd("nope", y(2003)); err == nil {
		t.Error("SetEnd on unknown version must fail")
	}
	if err := d.SetEnd("Smith", y(1999)); err == nil {
		t.Error("SetEnd before start must fail")
	}
}

func TestHasAncestorNamedAt(t *testing.T) {
	d := buildOrg(t)
	sales := map[string]bool{"Sales": true}
	if !d.HasAncestorNamedAt("Smith", sales, y(2001)) {
		t.Error("Smith is under Sales in 2001")
	}
	if d.HasAncestorNamedAt("Smith", sales, y(2002)) {
		t.Error("Smith left Sales in 2002")
	}
	// Self-match by display name.
	if !d.HasAncestorNamedAt("Sales", sales, y(2001)) {
		t.Error("a member matches its own name")
	}
	// Unknown member and invalid instant.
	if d.HasAncestorNamedAt("zz", sales, y(2001)) {
		t.Error("unknown member must not match")
	}
	if d.HasAncestorNamedAt("Bill", sales, y(2001)) {
		t.Error("Bill is not valid in 2001")
	}
}

func TestMemberVersionCloneAttrs(t *testing.T) {
	mv := &MemberVersion{ID: "a", Valid: temporal.Always, Attrs: map[string]string{"k": "v"}}
	cp := mv.Clone()
	cp.Attrs["k"] = "changed"
	if mv.Attrs["k"] != "v" {
		t.Error("Clone must deep-copy attributes")
	}
}

// TestAddRelationshipCoalescesSameEdge: one edge is stored as maximal
// pieces. A piece adjacent to or overlapping a stored piece of the same
// edge extends it; one that bridges two stored pieces leaves a single
// piece; another parent's edge, or a piece with a gap, is appended.
func TestAddRelationshipCoalescesSameEdge(t *testing.T) {
	d := NewDimension("D", "D")
	for _, id := range []MVID{"child", "p", "q"} {
		if err := d.AddVersion(&MemberVersion{ID: id, Level: "L", Valid: temporal.Since(y(2000))}); err != nil {
			t.Fatal(err)
		}
	}
	add := func(to MVID, valid temporal.Interval) {
		t.Helper()
		if err := d.AddRelationship(TemporalRelationship{From: "child", To: to, Valid: valid}); err != nil {
			t.Fatal(err)
		}
	}
	pieces := func() string { return fmt.Sprint(d.Relationships()) }

	add("p", temporal.Between(y(2000), ym(2000, 12)))
	add("p", temporal.Between(y(2003), ym(2003, 12))) // a gap: its own piece
	add("q", temporal.Between(y(2001), ym(2001, 12))) // adjacent in time, another edge
	if got := len(d.Relationships()); got != 3 {
		t.Fatalf("%d pieces, want 3: %s", got, pieces())
	}
	add("p", temporal.Between(y(2001), ym(2001, 6)))     // adjacent on the right of the first piece
	add("p", temporal.Between(ym(2002, 6), ym(2003, 3))) // overlapping the second on its left
	if got, want := pieces(), fmt.Sprint([]TemporalRelationship{
		{From: "child", To: "p", Valid: temporal.Between(y(2000), ym(2001, 6))},
		{From: "child", To: "p", Valid: temporal.Between(ym(2002, 6), ym(2003, 12))},
		{From: "child", To: "q", Valid: temporal.Between(y(2001), ym(2001, 12))},
	}); got != want {
		t.Fatalf("pieces %s, want %s", got, want)
	}
	add("p", temporal.Between(ym(2001, 7), ym(2002, 5))) // bridges the two
	if got, want := pieces(), fmt.Sprint([]TemporalRelationship{
		{From: "child", To: "p", Valid: temporal.Between(y(2000), ym(2003, 12))},
		{From: "child", To: "q", Valid: temporal.Between(y(2001), ym(2001, 12))},
	}); got != want {
		t.Fatalf("pieces %s, want %s", got, want)
	}
	// The indexes followed the compaction.
	if got := d.ParentsAt("child", ym(2001, 9)); len(got) != 2 || got[0].ID != "p" || got[1].ID != "q" {
		t.Fatalf("parents at 09/2001: %v", got)
	}
	if got := d.ChildrenAt("q", ym(2001, 9)); len(got) != 1 || got[0].ID != "child" {
		t.Fatalf("children of q at 09/2001: %v", got)
	}
	// A restriction over an interval the re-created edge spans keeps it.
	if got := d.Restrict(temporal.Between(ym(2000, 6), ym(2003, 6))).Relationships(); len(got) != 1 || got[0].To != "p" {
		t.Fatalf("restriction lost the coalesced edge: %v", got)
	}
}
