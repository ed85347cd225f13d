package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"mvolap/internal/temporal"
)

// splitSchema builds the full case-study schema white-box (departments,
// reclassification, split, facts, mappings).
func splitSchema(t testing.TB) *Schema {
	s := NewSchema("cs", Measure{Name: "Amount", Agg: Sum})
	d := buildOrg(t)
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	maps := []MappingRelationship{
		{From: "Jones", To: "Bill",
			Forward:  []MeasureMapping{{Fn: Linear{0.4}, CF: ApproxMapping}},
			Backward: []MeasureMapping{{Fn: Identity, CF: ExactMapping}}},
		{From: "Jones", To: "Paul",
			Forward:  []MeasureMapping{{Fn: Linear{0.6}, CF: ApproxMapping}},
			Backward: []MeasureMapping{{Fn: Identity, CF: ExactMapping}}},
	}
	for _, m := range maps {
		if err := s.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	type row struct {
		id  MVID
		yr  int
		amt float64
	}
	for _, r := range []row{
		{"Jones", 2001, 100}, {"Smith", 2001, 50}, {"Brian", 2001, 100},
		{"Jones", 2002, 100}, {"Smith", 2002, 100}, {"Brian", 2002, 50},
		{"Bill", 2003, 150}, {"Paul", 2003, 50}, {"Smith", 2003, 110}, {"Brian", 2003, 40},
	} {
		if err := s.InsertFact(Coords{r.id}, y(r.yr), r.amt); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestTCMRestrictionIsSource verifies the identity of Definition 11:
// f' restricted to tcm equals f × {sd}^m.
func TestTCMRestrictionIsSource(t *testing.T) {
	s := splitSchema(t)
	mt, err := s.MultiVersion().Mode(TCM())
	if err != nil {
		t.Fatal(err)
	}
	if mt.Len() != s.Facts().Len() {
		t.Fatalf("tcm has %d tuples, source has %d", mt.Len(), s.Facts().Len())
	}
	for _, f := range s.Facts().Facts() {
		m, ok := mt.Lookup(f.Coords, f.Time)
		if !ok {
			t.Fatalf("tcm missing %v@%v", f.Coords, f.Time)
		}
		for k := range f.Values {
			if m.Values[k] != f.Values[k] {
				t.Errorf("tcm value differs at %v@%v", f.Coords, f.Time)
			}
			if m.CFs[k] != SourceData {
				t.Errorf("tcm cf must be sd, got %v", m.CFs[k])
			}
		}
	}
	if mt.Dropped != 0 {
		t.Errorf("tcm dropped %d", mt.Dropped)
	}
}

func TestVersionModeMapping(t *testing.T) {
	s := splitSchema(t)
	v3 := s.VersionAt(y(2003))
	mt, err := s.MultiVersion().Mode(InVersion(v3))
	if err != nil {
		t.Fatal(err)
	}
	// Jones's 2001 and 2002 tuples fan out to Bill and Paul.
	bill01, ok := mt.Lookup(Coords{"Bill"}, y(2001))
	if !ok || bill01.Values[0] != 40 || bill01.CFs[0] != ApproxMapping {
		t.Errorf("Bill@2001 = %+v", bill01)
	}
	paul02, ok := mt.Lookup(Coords{"Paul"}, y(2002))
	if !ok || paul02.Values[0] != 60 || paul02.CFs[0] != ApproxMapping {
		t.Errorf("Paul@2002 = %+v", paul02)
	}
	// Smith stays source data.
	smith02, ok := mt.Lookup(Coords{"Smith"}, y(2002))
	if !ok || smith02.Values[0] != 100 || smith02.CFs[0] != SourceData {
		t.Errorf("Smith@2002 = %+v", smith02)
	}
	// No Jones tuples exist in V3.
	if _, ok := mt.Lookup(Coords{"Jones"}, y(2001)); ok {
		t.Error("Jones must not appear in V3 presentation")
	}
}

func TestVersionModeMerge(t *testing.T) {
	s := splitSchema(t)
	v2 := s.VersionAt(y(2002))
	mt, err := s.MultiVersion().Mode(InVersion(v2))
	if err != nil {
		t.Fatal(err)
	}
	jones03, ok := mt.Lookup(Coords{"Jones"}, y(2003))
	if !ok {
		t.Fatal("Jones@2003 missing in V2 presentation")
	}
	if jones03.Values[0] != 200 {
		t.Errorf("merged value = %v, want 200", jones03.Values[0])
	}
	if jones03.CFs[0] != ExactMapping {
		t.Errorf("merged cf = %v, want em", jones03.CFs[0])
	}
	if jones03.Sources != 2 {
		t.Errorf("merged sources = %d, want 2", jones03.Sources)
	}
}

func TestDroppedFactsWithoutMappings(t *testing.T) {
	// Without the split mappings, Jones's data cannot be presented in
	// V3 (no chain to any valid leaf): those tuples are dropped.
	s := NewSchema("cs", Measure{Name: "Amount", Agg: Sum})
	d := buildOrg(t)
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertFact(Coords{"Jones"}, y(2001), 100); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertFact(Coords{"Smith"}, y(2001), 50); err != nil {
		t.Fatal(err)
	}
	v3 := s.VersionAt(y(2003))
	mt, err := s.MultiVersion().Mode(InVersion(v3))
	if err != nil {
		t.Fatal(err)
	}
	if mt.Dropped != 1 {
		t.Errorf("dropped = %d, want 1 (the Jones tuple)", mt.Dropped)
	}
	if mt.Len() != 1 {
		t.Errorf("presented tuples = %d, want 1", mt.Len())
	}
}

func TestUnknownMappingYieldsNaN(t *testing.T) {
	// V1, V2 merged into V12 at 2002 with unknown backward mapping to
	// V2 (the paper's Table 11 merge).
	s := NewSchema("merge", Measure{Name: "m", Agg: Sum})
	d := NewDimension("D", "D")
	for _, mv := range []*MemberVersion{
		{ID: "root", Level: "Top", Valid: temporal.Since(y(2001))},
		{ID: "V1", Level: "Leaf", Valid: temporal.Between(y(2001), ym(2001, 12))},
		{ID: "V2", Level: "Leaf", Valid: temporal.Between(y(2001), ym(2001, 12))},
		{ID: "V12", Level: "Leaf", Valid: temporal.Since(y(2002))},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []TemporalRelationship{
		{From: "V1", To: "root", Valid: temporal.Between(y(2001), ym(2001, 12))},
		{From: "V2", To: "root", Valid: temporal.Between(y(2001), ym(2001, 12))},
		{From: "V12", To: "root", Valid: temporal.Since(y(2002))},
	} {
		if err := d.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	for _, m := range []MappingRelationship{
		{From: "V1", To: "V12",
			Forward:  []MeasureMapping{{Fn: Identity, CF: ExactMapping}},
			Backward: []MeasureMapping{{Fn: Linear{0.5}, CF: ApproxMapping}}},
		{From: "V2", To: "V12",
			Forward:  []MeasureMapping{{Fn: Identity, CF: ExactMapping}},
			Backward: []MeasureMapping{{Fn: Unknown{}, CF: UnknownMapping}}},
	} {
		if err := s.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.InsertFact(Coords{"V12"}, y(2002), 100); err != nil {
		t.Fatal(err)
	}
	v1 := s.VersionAt(y(2001))
	mt, err := s.MultiVersion().Mode(InVersion(v1))
	if err != nil {
		t.Fatal(err)
	}
	// V12's value maps to V1 as 50 (am) and to V2 as unknown.
	mv1, ok := mt.Lookup(Coords{"V1"}, y(2002))
	if !ok || mv1.Values[0] != 50 || mv1.CFs[0] != ApproxMapping {
		t.Errorf("V1 presentation = %+v", mv1)
	}
	mv2, ok := mt.Lookup(Coords{"V2"}, y(2002))
	if !ok {
		t.Fatal("V2 presentation missing")
	}
	if !math.IsNaN(mv2.Values[0]) {
		t.Errorf("V2 value = %v, want NaN", mv2.Values[0])
	}
	if mv2.CFs[0] != UnknownMapping {
		t.Errorf("V2 cf = %v, want uk", mv2.CFs[0])
	}
}

// TestMassConservationProperty: with exact identity backward mappings
// (as in the case study), the total of each measure per instant is
// preserved in every version presentation built from splits whose
// forward factors sum to 1.
func TestMassConservationProperty(t *testing.T) {
	f := func(seed uint32) bool {
		_ = seed
		s := splitSchema(t)
		for _, v := range s.StructureVersions() {
			mt, err := s.MultiVersion().Mode(InVersion(v))
			if err != nil {
				return false
			}
			totals := map[temporal.Instant]float64{}
			for _, mf := range mt.Facts() {
				if !math.IsNaN(mf.Values[0]) {
					totals[mf.Time] += mf.Values[0]
				}
			}
			want := map[temporal.Instant]float64{}
			for _, sf := range s.Facts().Facts() {
				want[sf.Time] += sf.Values[0]
			}
			for k, v := range want {
				if math.Abs(totals[k]-v) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestMultiVersionAll(t *testing.T) {
	s := splitSchema(t)
	all, err := s.MultiVersion().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 { // tcm + V1..V3
		t.Fatalf("got %d modes, want 4", len(all))
	}
	for key, mt := range all {
		if mt.Len() == 0 {
			t.Errorf("mode %s has no tuples", key)
		}
	}
	// The cache returns the same tables.
	mt1, _ := s.MultiVersion().Mode(TCM())
	mt2, _ := s.MultiVersion().Mode(TCM())
	if mt1 != mt2 {
		t.Error("mapped tables must be cached")
	}
	// Inserting a fact invalidates the cache.
	if err := s.InsertFact(Coords{"Smith"}, y(2003), 1); err != nil {
		t.Fatal(err)
	}
	mt3, _ := s.MultiVersion().Mode(TCM())
	if mt3 == mt1 {
		t.Error("fact insertion must invalidate the MVFT cache")
	}
}

// mergeSchema builds a dimension where leaves A, B, C (and D with an
// unknown mapping) of 2001 merge into M at 2002, carrying one measure
// of the given aggregate kind.
func mergeSchema(t *testing.T, agg AggKind) *Schema {
	t.Helper()
	s := NewSchema("merge3", Measure{Name: "m", Agg: agg})
	d := NewDimension("D", "D")
	old := temporal.Between(y(2001), ym(2001, 12))
	for _, mv := range []*MemberVersion{
		{ID: "root", Level: "Top", Valid: temporal.Since(y(2001))},
		{ID: "A", Level: "Leaf", Valid: old},
		{ID: "B", Level: "Leaf", Valid: old},
		{ID: "C", Level: "Leaf", Valid: old},
		{ID: "Dx", Level: "Leaf", Valid: old},
		{ID: "M", Level: "Leaf", Valid: temporal.Since(y(2002))},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []TemporalRelationship{
		{From: "A", To: "root", Valid: old},
		{From: "B", To: "root", Valid: old},
		{From: "C", To: "root", Valid: old},
		{From: "Dx", To: "root", Valid: old},
		{From: "M", To: "root", Valid: temporal.Since(y(2002))},
	} {
		if err := d.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	fwd := func(fn Mapper, cf Confidence) []MeasureMapping { return []MeasureMapping{{Fn: fn, CF: cf}} }
	for _, m := range []MappingRelationship{
		{From: "A", To: "M", Forward: fwd(Identity, ExactMapping), Backward: fwd(Unknown{}, UnknownMapping)},
		{From: "B", To: "M", Forward: fwd(Identity, ExactMapping), Backward: fwd(Unknown{}, UnknownMapping)},
		{From: "C", To: "M", Forward: fwd(Identity, ExactMapping), Backward: fwd(Unknown{}, UnknownMapping)},
		{From: "Dx", To: "M", Forward: fwd(Unknown{}, UnknownMapping), Backward: fwd(Unknown{}, UnknownMapping)},
	} {
		if err := s.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestAvgThreeWayMerge pins the Avg merge fix: folding three source
// tuples onto one target must yield the true mean of the three, not the
// order-dependent pairwise midpoint ((a+b)/2 + c)/2 of the old code.
func TestAvgThreeWayMerge(t *testing.T) {
	s := mergeSchema(t, Avg)
	for id, v := range map[MVID]float64{"A": 10, "B": 20, "C": 60} {
		if err := s.InsertFact(Coords{id}, y(2001), v); err != nil {
			t.Fatal(err)
		}
	}
	v2 := s.VersionAt(y(2002))
	mt, err := s.MultiVersion().Mode(InVersion(v2))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := mt.Lookup(Coords{"M"}, y(2001))
	if !ok {
		t.Fatal("merged tuple missing")
	}
	if m.Values[0] != 30 {
		t.Errorf("3-way merged Avg = %v, want the true mean 30", m.Values[0])
	}
	if m.Sources != 3 {
		t.Errorf("Sources = %d, want 3", m.Sources)
	}
}

// TestAvgMergeIgnoresUnknown: a contributor whose mapping is unknown
// (NaN) must not drag the merged mean or its weight.
func TestAvgMergeIgnoresUnknown(t *testing.T) {
	s := mergeSchema(t, Avg)
	for id, v := range map[MVID]float64{"A": 10, "B": 20, "C": 60, "Dx": 1000} {
		if err := s.InsertFact(Coords{id}, y(2001), v); err != nil {
			t.Fatal(err)
		}
	}
	mt, err := s.MultiVersion().Mode(InVersion(s.VersionAt(y(2002))))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := mt.Lookup(Coords{"M"}, y(2001))
	if !ok {
		t.Fatal("merged tuple missing")
	}
	if m.Values[0] != 30 {
		t.Errorf("merged Avg with NaN contributor = %v, want 30", m.Values[0])
	}
	if m.Sources != 4 {
		t.Errorf("Sources = %d, want 4 (NaN contributors still count as sources)", m.Sources)
	}
	if m.CFs[0] != UnknownMapping {
		t.Errorf("merged cf = %v, want uk (poisoned by the unknown mapping)", m.CFs[0])
	}
}

// TestModeSingleflight asserts that many concurrent first queries on
// the same cold version mode share one build of each resolution table —
// one per version, the schema having one dimension — and the same
// answer. Run with -race.
func TestModeSingleflight(t *testing.T) {
	s := splitSchema(t)
	modes := s.Modes()[1:] // tcm reads the store as it is
	const callers = 16
	results := make([][]*Result, len(modes))
	for i := range results {
		results[i] = make([]*Result, callers)
	}
	built := metResolveTablesBuilt.With("Org").Value()
	var wg sync.WaitGroup
	for mi, m := range modes {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(mi, c int, m Mode) {
				defer wg.Done()
				res, err := s.Execute(Query{GroupBy: []GroupBy{{Dim: "Org", Level: "Department"}}, Mode: m})
				if err != nil {
					t.Error(err)
					return
				}
				results[mi][c] = res
			}(mi, c, m)
		}
	}
	wg.Wait()
	for mi := range results {
		for c := 1; c < callers; c++ {
			requireBitIdentical(t, fmt.Sprintf("mode %s caller %d", modes[mi], c), results[mi][c], results[mi][0])
		}
	}
	if got := metResolveTablesBuilt.With("Org").Value() - built; got != int64(len(modes)) {
		t.Errorf("%d resolution tables built, want exactly %d (one per version mode)", got, len(modes))
	}
	if got := s.MultiVersion().Materializations(); got != 0 {
		t.Errorf("queries materialized %d modes, want 0", got)
	}
}

// TestInvalidationVisibility pins the caching contract: a handle taken
// before an insert keeps serving its snapshot (the new fact must NOT
// appear through it), while handles fetched after the invalidation see
// the new fact.
func TestInvalidationVisibility(t *testing.T) {
	s := splitSchema(t)
	stale := s.MultiVersion()
	base, err := stale.Mode(TCM())
	if err != nil {
		t.Fatal(err)
	}
	n0 := base.Len()
	if err := s.InsertFact(Coords{"Smith"}, y(2004), 7); err != nil {
		t.Fatal(err)
	}
	// Before re-fetching (i.e. "before Invalidate" from the stale
	// handle's point of view) the fact is invisible.
	again, err := stale.Mode(TCM())
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != n0 {
		t.Errorf("stale handle sees %d tuples, want the snapshot's %d", again.Len(), n0)
	}
	if _, ok := again.Lookup(Coords{"Smith"}, y(2004)); ok {
		t.Error("inserted fact must not appear through the pre-insert handle")
	}
	// InsertFact invalidates: a fresh handle sees the fact.
	fresh := s.MultiVersion()
	if fresh == stale {
		t.Fatal("insert must drop the cached MVFT")
	}
	cur, err := fresh.Mode(TCM())
	if err != nil {
		t.Fatal(err)
	}
	if cur.Len() != n0+1 {
		t.Errorf("fresh handle sees %d tuples, want %d", cur.Len(), n0+1)
	}
	if _, ok := cur.Lookup(Coords{"Smith"}, y(2004)); !ok {
		t.Error("inserted fact must appear after invalidation")
	}
	// Explicit Invalidate also rotates the handle and keeps the fact.
	s.Invalidate()
	third := s.MultiVersion()
	if third == fresh {
		t.Fatal("Invalidate must drop the cached MVFT")
	}
	cur2, err := third.Mode(TCM())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur2.Lookup(Coords{"Smith"}, y(2004)); !ok {
		t.Error("fact must stay visible after explicit Invalidate")
	}
}

func TestModeErrors(t *testing.T) {
	s := splitSchema(t)
	if _, err := s.MultiVersion().Mode(Mode{Kind: VersionKind}); err == nil {
		t.Error("version mode without version must fail")
	}
	if _, err := s.MultiVersion().Mode(Mode{Kind: ModeKind(9)}); err == nil {
		t.Error("unknown mode kind must fail")
	}
}

func TestFoldPair(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		kind AggKind
		a, b float64
		want float64
	}{
		{Sum, 1, 2, 3},
		{Min, 1, 2, 1},
		{Max, 1, 2, 2},
		{Avg, 1, 3, 2},
		{Count, 2, 3, 5},
		{Sum, nan, 2, 2},
		{Sum, 1, nan, 1},
		{Count, nan, 7, 1},
	}
	for _, c := range cases {
		got := foldPair(c.kind, c.a, c.b)
		if got != c.want {
			t.Errorf("foldPair(%v, %v, %v) = %v, want %v", c.kind, c.a, c.b, got, c.want)
		}
	}
	if !math.IsNaN(foldPair(Sum, nan, nan)) {
		t.Error("NaN+NaN must stay NaN")
	}
	if !math.IsNaN(foldPair(AggKind(99), 1, 2)) {
		t.Error("unknown agg kind must fold to NaN")
	}
}
