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
func splitSchema(t testing.TB) *Schema { return splitSchemaWith(t, ApproxMapping) }

// splitSchemaWith is splitSchema with the split's forward mappings
// carrying the confidence factor cf.
func splitSchemaWith(t testing.TB, cf Confidence) *Schema {
	s := NewSchema("cs", Measure{Name: "Amount", Agg: Sum})
	d := buildOrg(t)
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	maps := []MappingRelationship{
		{From: "Jones", To: "Bill",
			Forward:  []MeasureMapping{{Fn: Linear{0.4}, CF: cf}},
			Backward: []MeasureMapping{{Fn: Identity, CF: ExactMapping}}},
		{From: "Jones", To: "Paul",
			Forward:  []MeasureMapping{{Fn: Linear{0.6}, CF: cf}},
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
	mt, dropped := presented(t, s, TCM())
	if len(mt) != s.Facts().Len() {
		t.Fatalf("tcm has %d tuples, source has %d", len(mt), s.Facts().Len())
	}
	for _, f := range s.Facts().Facts() {
		m, ok := presentedAt(mt, f.Coords, f.Time)
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
		if m.Sources != 1 {
			t.Errorf("tcm tuple %v@%v has %d sources, want 1", f.Coords, f.Time, m.Sources)
		}
	}
	if dropped != 0 {
		t.Errorf("tcm dropped %d", dropped)
	}
}

func TestVersionModeMapping(t *testing.T) {
	s := splitSchema(t)
	v3 := s.VersionAt(y(2003))
	mt, _ := presented(t, s, InVersion(v3))
	// Jones's 2001 and 2002 tuples fan out to Bill and Paul.
	bill01, ok := presentedAt(mt, Coords{"Bill"}, y(2001))
	if !ok || bill01.Values[0] != 40 || bill01.CFs[0] != ApproxMapping {
		t.Errorf("Bill@2001 = %+v", bill01)
	}
	paul02, ok := presentedAt(mt, Coords{"Paul"}, y(2002))
	if !ok || paul02.Values[0] != 60 || paul02.CFs[0] != ApproxMapping {
		t.Errorf("Paul@2002 = %+v", paul02)
	}
	// Smith stays source data.
	smith02, ok := presentedAt(mt, Coords{"Smith"}, y(2002))
	if !ok || smith02.Values[0] != 100 || smith02.CFs[0] != SourceData {
		t.Errorf("Smith@2002 = %+v", smith02)
	}
	// No Jones tuples exist in V3.
	if _, ok := presentedAt(mt, Coords{"Jones"}, y(2001)); ok {
		t.Error("Jones must not appear in V3 presentation")
	}
}

func TestVersionModeMerge(t *testing.T) {
	s := splitSchema(t)
	v2 := s.VersionAt(y(2002))
	mt, _ := presented(t, s, InVersion(v2))
	jones03, ok := presentedAt(mt, Coords{"Jones"}, y(2003))
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
	mt, dropped := presented(t, s, InVersion(v3))
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1 (the Jones tuple)", dropped)
	}
	if len(mt) != 1 {
		t.Errorf("presented tuples = %d, want 1", len(mt))
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
	mt, _ := presented(t, s, InVersion(v1))
	// V12's value maps to V1 as 50 (am) and to V2 as unknown.
	mv1, ok := presentedAt(mt, Coords{"V1"}, y(2002))
	if !ok || mv1.Values[0] != 50 || mv1.CFs[0] != ApproxMapping {
		t.Errorf("V1 presentation = %+v", mv1)
	}
	mv2, ok := presentedAt(mt, Coords{"V2"}, y(2002))
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
			mt, _ := presented(t, s, InVersion(v))
			totals := map[temporal.Instant]float64{}
			for _, mf := range mt {
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

// TestMultiVersionAll presents every mode of the schema — the full f' —
// and checks that a write shows in the next presentation at once: a
// mode is presented from the store, never cached.
func TestMultiVersionAll(t *testing.T) {
	s := splitSchema(t)
	modes := s.Modes()
	if len(modes) != 4 { // tcm + V1..V3
		t.Fatalf("got %d modes, want 4", len(modes))
	}
	for _, m := range modes {
		if mt, _ := presented(t, s, m); len(mt) == 0 {
			t.Errorf("mode %s has no tuples", m)
		}
	}
	if err := s.InsertFact(Coords{"Smith"}, y(2004), 1); err != nil {
		t.Fatal(err)
	}
	for _, m := range modes {
		mt, _ := presented(t, s, m)
		if f, ok := presentedAt(mt, Coords{"Smith"}, y(2004)); !ok || f.Values[0] != 1 {
			t.Errorf("mode %s presents %+v, %v at the inserted fact", m, f, ok)
		}
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
	mt, _ := presented(t, s, InVersion(v2))
	m, ok := presentedAt(mt, Coords{"M"}, y(2001))
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
	mt, _ := presented(t, s, InVersion(s.VersionAt(y(2002))))
	m, ok := presentedAt(mt, Coords{"M"}, y(2001))
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
}

// TestInvalidationVisibility pins the visibility contract: a write
// shows in the written schema's next presentation at once, an explicit
// Invalidate keeps it, and a generation cloned before the write — the
// serving tier's published snapshot — keeps presenting what it held.
func TestInvalidationVisibility(t *testing.T) {
	s := splitSchema(t)
	published := s.Clone()
	base, _ := presented(t, s, TCM())
	n0 := len(base)
	if err := s.InsertFact(Coords{"Smith"}, y(2004), 7); err != nil {
		t.Fatal(err)
	}
	stale, _ := presented(t, published, TCM())
	if len(stale) != n0 {
		t.Errorf("the published generation presents %d tuples, want its %d", len(stale), n0)
	}
	if _, ok := presentedAt(stale, Coords{"Smith"}, y(2004)); ok {
		t.Error("inserted fact must not appear in the generation cloned before it")
	}
	cur, _ := presented(t, s, TCM())
	if len(cur) != n0+1 {
		t.Errorf("the written schema presents %d tuples, want %d", len(cur), n0+1)
	}
	if _, ok := presentedAt(cur, Coords{"Smith"}, y(2004)); !ok {
		t.Error("inserted fact must appear in the written schema")
	}
	s.Invalidate()
	cur2, _ := presented(t, s, TCM())
	if _, ok := presentedAt(cur2, Coords{"Smith"}, y(2004)); !ok {
		t.Error("fact must stay visible after explicit Invalidate")
	}
}

func TestModeErrors(t *testing.T) {
	s := splitSchema(t)
	yield := func(*MappedFact) bool { return true }
	if _, err := s.Present(Mode{Kind: VersionKind}, yield); err == nil {
		t.Error("version mode without version must fail")
	}
	if _, err := s.Present(Mode{Kind: ModeKind(9)}, yield); err == nil {
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
		{Sum, nan, 2, 2},
		{Sum, 1, nan, 1},
		{Max, nan, 7, 7},
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
