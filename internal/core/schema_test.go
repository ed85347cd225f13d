package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"mvolap/internal/temporal"
)

func orgSchema(t testing.TB) *Schema {
	t.Helper()
	s := NewSchema("test", Measure{Name: "Amount", Agg: Sum})
	if err := s.AddDimension(buildOrg(t)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaDimensionRegistry(t *testing.T) {
	s := orgSchema(t)
	if s.Dimension("Org") == nil {
		t.Fatal("dimension lookup failed")
	}
	if s.Dimension("nope") != nil {
		t.Error("unknown dimension must be nil")
	}
	if s.DimIndex("Org") != 0 || s.DimIndex("nope") != -1 {
		t.Error("DimIndex wrong")
	}
	if err := s.AddDimension(NewDimension("Org", "dup")); err == nil {
		t.Error("duplicate dimension must be rejected")
	}
	if len(s.Dimensions()) != 1 {
		t.Error("Dimensions() wrong length")
	}
}

func TestSchemaMeasures(t *testing.T) {
	s := NewSchema("m", Measure{Name: "a", Agg: Sum}, Measure{Name: "b", Agg: Avg})
	if s.MeasureIndex("b") != 1 || s.MeasureIndex("zz") != -1 {
		t.Error("MeasureIndex wrong")
	}
	if len(s.Measures()) != 2 {
		t.Error("Measures() wrong")
	}
	if s.Facts().Measures() != 2 {
		t.Error("fact table arity wrong")
	}
}

func TestInsertFactValidation(t *testing.T) {
	s := orgSchema(t)
	ok := s.InsertFact(Coords{"Smith"}, y(2001), 50)
	if ok != nil {
		t.Fatalf("valid fact rejected: %v", ok)
	}
	cases := []struct {
		name   string
		coords Coords
		t      temporal.Instant
		vals   []float64
	}{
		{"arity", Coords{"Smith", "Smith"}, y(2001), []float64{1}},
		{"unknown member", Coords{"zzz"}, y(2001), []float64{1}},
		{"not valid at t", Coords{"Bill"}, y(2001), []float64{1}},
		{"value arity", Coords{"Smith"}, y(2001), []float64{1, 2}},
	}
	for _, c := range cases {
		if err := s.InsertFact(c.coords, c.t, c.vals...); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestMustInsertFactPanics(t *testing.T) {
	s := orgSchema(t)
	defer func() {
		if recover() == nil {
			t.Error("MustInsertFact must panic on invalid fact")
		}
	}()
	s.MustInsertFact(Coords{"zzz"}, y(2001), 1)
}

func TestAddMappingValidation(t *testing.T) {
	s := orgSchema(t)
	good := MappingRelationship{
		From:     "Jones",
		To:       "Bill",
		Forward:  UniformMapping(1, Linear{0.4}, ApproxMapping),
		Backward: UniformMapping(1, Identity, ExactMapping),
	}
	if err := s.AddMapping(good); err != nil {
		t.Fatalf("good mapping rejected: %v", err)
	}
	if len(s.Mappings()) != 1 {
		t.Error("mapping not stored")
	}
	bad := good
	bad.From = "zzz"
	if err := s.AddMapping(bad); err == nil {
		t.Error("mapping from unknown member must be rejected")
	}
	bad = good
	bad.To = "zzz"
	if err := s.AddMapping(bad); err == nil {
		t.Error("mapping to unknown member must be rejected")
	}
	bad = good
	bad.Forward = nil
	if err := s.AddMapping(bad); err == nil {
		t.Error("mapping with wrong arity must be rejected")
	}
}

// TestAddMappingKeepsStructureVersions: Definition 9 reads the
// dimensions alone, so registering a mapping (Associate) drops the
// mapping graph the version modes' resolution tables key on and keeps
// the structure versions, with no chain swept again.
func TestAddMappingKeepsStructureVersions(t *testing.T) {
	s := orgSchema(t)
	before := s.StructureVersions()
	chain := s.Dimension("Org").derived.chain.Load()
	graph := s.mappingGraph()
	if err := s.AddMapping(MappingRelationship{
		From:     "Jones",
		To:       "Bill",
		Forward:  UniformMapping(1, Linear{0.4}, ApproxMapping),
		Backward: UniformMapping(1, Identity, ExactMapping),
	}); err != nil {
		t.Fatal(err)
	}
	if s.mappingGraph() == graph {
		t.Error("the mapping graph survived a new mapping")
	}
	if after := s.StructureVersions(); &after[0] != &before[0] {
		t.Error("a new mapping dropped the structure versions")
	}
	if s.Dimension("Org").derived.chain.Load() != chain {
		t.Error("a new mapping swept the dimension's chain again")
	}
}

// TestSignatureIgnoresInsertionOrder: the signature is a function of
// what the dimensions hold, so the same structure built in the opposite
// order — other ordinals, other relationship storage — signs alike.
func TestSignatureIgnoresInsertionOrder(t *testing.T) {
	forward := buildOrg(t)
	backward := NewDimension("Org", "Org")
	versions, rels := forward.Versions(), forward.Relationships()
	for i := len(versions) - 1; i >= 0; i-- {
		if err := backward.AddVersion(versions[i].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(rels) - 1; i >= 0; i-- {
		if err := backward.AddRelationship(rels[i]); err != nil {
			t.Fatal(err)
		}
	}
	var sigs [2][]string
	for i, d := range []*Dimension{forward, backward} {
		s := NewSchema("order", Measure{Name: "Amount", Agg: Sum})
		if err := s.AddDimension(d); err != nil {
			t.Fatal(err)
		}
		for _, v := range s.StructureVersions() {
			sigs[i] = append(sigs[i], v.String()+" "+v.Signature())
		}
	}
	if len(sigs[0]) != 3 || fmt.Sprint(sigs[0]) != fmt.Sprint(sigs[1]) {
		t.Errorf("inserted forwards %v, backwards %v", sigs[0], sigs[1])
	}
}

func TestVersionOfAndDimensionOf(t *testing.T) {
	s := orgSchema(t)
	if s.VersionOf("Smith") == nil || s.VersionOf("zzz") != nil {
		t.Error("VersionOf wrong")
	}
	if d := s.DimensionOf("Smith"); d == nil || d.ID != "Org" {
		t.Error("DimensionOf wrong")
	}
	if s.DimensionOf("zzz") != nil {
		t.Error("DimensionOf(zzz) must be nil")
	}
}

func TestStructureVersionLookups(t *testing.T) {
	s := orgSchema(t)
	svs := s.StructureVersions()
	if len(svs) != 3 {
		t.Fatalf("got %d versions", len(svs))
	}
	if v := s.VersionAt(y(2002)); v == nil || v.ID != "V2" {
		t.Errorf("VersionAt(2002) = %v", v)
	}
	if v := s.VersionAt(y(1999)); v != nil {
		t.Errorf("VersionAt(1999) = %v, want nil", v)
	}
	if v := s.VersionByID("V3"); v == nil || !v.Valid.Equal(temporal.Since(y(2003))) {
		t.Errorf("VersionByID(V3) = %v", v)
	}
	if s.VersionByID("V9") != nil {
		t.Error("VersionByID(V9) must be nil")
	}
	// Restricted dimension accessors.
	v1 := svs[0]
	if v1.Dimension("Org") == nil || v1.Dimension("zz") != nil {
		t.Error("StructureVersion.Dimension wrong")
	}
	if len(v1.Dimensions()) != 1 {
		t.Error("StructureVersion.Dimensions wrong")
	}
	if v1.String() != "V1 [01/2001 ; 12/2001]" {
		t.Errorf("String = %q", v1.String())
	}
}

// TestStructureVersionDimensionsBuiltOnce: a version's restricted
// dimensions are built by whichever caller asks first and then kept.
func TestStructureVersionDimensionsBuiltOnce(t *testing.T) {
	v1 := orgSchema(t).StructureVersions()[0]
	got := make([]*Dimension, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = v1.Dimension("Org")
		}(i)
	}
	wg.Wait()
	for i, d := range got {
		if d == nil || d != got[0] {
			t.Fatalf("caller %d got restriction %p, caller 0 got %p", i, d, got[0])
		}
	}
}

func TestStructureVersionsCacheInvalidation(t *testing.T) {
	s := orgSchema(t)
	first := s.StructureVersions()
	if got := s.StructureVersions(); &got[0] != &first[0] {
		t.Error("structure versions must be cached")
	}
	s.Invalidate()
	// After invalidation the result is recomputed (content equal).
	second := s.StructureVersions()
	if len(second) != len(first) {
		t.Error("recomputed versions differ")
	}
}

// TestStructureVersionsPartitionProperty: structure versions partition
// the schema lifetime — sorted, disjoint, adjacent, covering.
func TestStructureVersionsPartitionProperty(t *testing.T) {
	f := func(seed uint32) bool {
		s := randomEvolvingSchema(int64(seed))
		svs := s.StructureVersions()
		if len(svs) == 0 {
			return true
		}
		for i := 1; i < len(svs); i++ {
			if !svs[i-1].Valid.Adjacent(svs[i].Valid) {
				return false
			}
		}
		// Every member version interval is covered by whole versions.
		for _, d := range s.Dimensions() {
			for _, mv := range d.Versions() {
				for _, sv := range svs {
					x := sv.Valid.Intersect(mv.Valid)
					if !x.Empty() && !x.Equal(sv.Valid) {
						return false // partial overlap: boundary missed
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStructureVersionsConsecutiveDiffer: adjacent structure versions
// must have different structural signatures (maximality).
func TestStructureVersionsConsecutiveDiffer(t *testing.T) {
	f := func(seed uint32) bool {
		s := randomEvolvingSchema(int64(seed))
		svs := s.StructureVersions()
		for i := 1; i < len(svs); i++ {
			if naiveSignatureAt(s, svs[i-1].Valid.Start) == naiveSignatureAt(s, svs[i].Valid.Start) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestModes(t *testing.T) {
	s := orgSchema(t)
	modes := s.Modes()
	if len(modes) != 4 {
		t.Fatalf("got %d modes, want tcm + 3 versions", len(modes))
	}
	if modes[0].String() != "tcm" {
		t.Errorf("first mode = %v", modes[0])
	}
	if modes[1].String() != "V1" || modes[3].String() != "V3" {
		t.Errorf("version modes = %v, %v", modes[1], modes[3])
	}
	if (Mode{Kind: VersionKind}).String() != "version(?)" {
		t.Error("nil version mode String")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := orgSchema(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	// Corrupt a relationship's validity behind the dimension's back.
	d := s.Dimension("Org")
	d.rels[0].Valid = temporal.Always
	if err := s.Validate(); err == nil {
		t.Error("corrupted relationship must fail validation")
	}
}

// TestDegenerateSchemas: empty schemas must not panic anywhere on the
// query path.
func TestDegenerateSchemas(t *testing.T) {
	// No dimensions, no facts.
	s := NewSchema("empty", Measure{Name: "m", Agg: Sum})
	if got := s.StructureVersions(); len(got) != 0 {
		t.Errorf("empty schema versions = %v", got)
	}
	if got := s.Modes(); len(got) != 1 || got[0].Kind != TCMKind {
		t.Errorf("empty schema modes = %v", got)
	}
	res, err := s.Execute(Query{Grain: GrainYear, Mode: TCM()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("empty schema rows = %v", res.Rows())
	}
	// Dimension with members but no facts.
	d := NewDimension("D", "D")
	if err := d.AddVersion(&MemberVersion{ID: "a", Level: "L", Valid: temporal.Always}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	res, err = s.Execute(Query{
		GroupBy: []GroupBy{{Dim: "D", Level: "L"}},
		Grain:   GrainYear,
		Mode:    TCM(),
	})
	if err != nil || res.Len() != 0 {
		t.Errorf("factless schema: %v, %v", res.Rows(), err)
	}
	// Version-mode query on a factless schema.
	if svs := s.StructureVersions(); len(svs) == 1 {
		res, err = s.Execute(Query{Grain: GrainYear, Mode: InVersion(svs[0])})
		if err != nil || res.Len() != 0 {
			t.Errorf("factless version mode: %v, %v", res.Rows(), err)
		}
	} else {
		t.Errorf("factless schema versions = %v", svs)
	}
	// Schema without measures.
	s2 := NewSchema("nomeasures")
	if err := s2.AddDimension(buildOrg(t)); err != nil {
		t.Fatal(err)
	}
	if err := s2.InsertFact(Coords{"Smith"}, y(2001)); err != nil {
		t.Fatal(err)
	}
	res, err = s2.Execute(Query{Grain: GrainYear, Mode: TCM()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || len(res.Rows()[0].Values) != 0 {
		t.Errorf("zero-measure rows = %+v", res.Rows())
	}
}
