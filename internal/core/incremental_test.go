package core

import (
	"context"
	"math"
	"testing"

	"mvolap/internal/temporal"
)

// TestFactTableCloneCopyOnWrite pins the COW contract of
// FactTable.Clone: inserts and replacements on either side never reach
// through to the other, across chained clones.
func TestFactTableCloneCopyOnWrite(t *testing.T) {
	base := factSchema(t, 1, "a", "b", "c", "d", "e")
	src := base.Facts()
	for i, id := range []MVID{"a", "b", "c"} {
		if err := src.Insert(Coords{id}, y(2001), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	clone := base.Clone()
	cl := clone.Facts()

	// Insert-only growth on both sides stays private.
	if err := cl.Insert(Coords{"d"}, y(2001), 3); err != nil {
		t.Fatal(err)
	}
	if err := src.Insert(Coords{"e"}, y(2001), 4); err != nil {
		t.Fatal(err)
	}
	if src.Len() != 4 || cl.Len() != 4 {
		t.Fatalf("lens = %d, %d, want 4, 4", src.Len(), cl.Len())
	}
	if _, ok := src.Lookup(Coords{"d"}, y(2001)); ok {
		t.Error("clone insert visible in source")
	}
	if _, ok := cl.Lookup(Coords{"e"}, y(2001)); ok {
		t.Error("source insert visible in clone (base index must be bounds-guarded)")
	}

	// Replacement privatizes the shared tuple instead of mutating it.
	if err := cl.Insert(Coords{"a"}, y(2001), 99); err != nil {
		t.Fatal(err)
	}
	if v, _ := src.Lookup(Coords{"a"}, y(2001)); v[0] != 0 {
		t.Errorf("clone replacement leaked into source: %v", v)
	}
	if v, _ := cl.Lookup(Coords{"a"}, y(2001)); v[0] != 99 {
		t.Errorf("clone replacement lost: %v", v)
	}
	// And symmetrically on the source, whose tuples are shared too.
	if err := src.Insert(Coords{"b"}, y(2001), -1); err != nil {
		t.Fatal(err)
	}
	if v, _ := cl.Lookup(Coords{"b"}, y(2001)); v[0] != 1 {
		t.Errorf("source replacement leaked into clone: %v", v)
	}

	// A chained clone (exercising the flatten/copy paths) stays isolated.
	cl2 := clone.Clone().Facts()
	if err := cl2.Insert(Coords{"a"}, y(2001), 7); err != nil {
		t.Fatal(err)
	}
	if v, _ := cl.Lookup(Coords{"a"}, y(2001)); v[0] != 99 {
		t.Errorf("grandchild replacement leaked: %v", v)
	}
	if v, _ := cl2.Lookup(Coords{"a"}, y(2001)); v[0] != 7 {
		t.Errorf("grandchild replacement lost: %v", v)
	}
}

// TestDimensionMutationInvalidatesMVFT is the regression test for the
// old footgun: evolution operators mutate dimensions in place, and the
// cached MultiVersion Fact Table used to survive unless the caller
// remembered Schema.Invalidate. Every mutator must now invalidate
// through the dimension's schema callback.
func TestDimensionMutationInvalidatesMVFT(t *testing.T) {
	mutations := []struct {
		name string
		do   func(t *testing.T, s *Schema)
	}{
		{"AddVersion", func(t *testing.T, s *Schema) {
			if err := s.Dimension("Org").AddVersion(&MemberVersion{
				ID: "Newbie", Level: "Department", Valid: temporal.Since(y(2004)),
			}); err != nil {
				t.Fatal(err)
			}
		}},
		{"AddRelationship", func(t *testing.T, s *Schema) {
			d := s.Dimension("Org")
			if err := d.AddVersion(&MemberVersion{
				ID: "Newbie", Level: "Department", Valid: temporal.Since(y(2004)),
			}); err != nil {
				t.Fatal(err)
			}
			if err := d.AddRelationship(TemporalRelationship{
				From: "Newbie", To: "Sales", Valid: temporal.Since(y(2004)),
			}); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetEnd", func(t *testing.T, s *Schema) {
			if err := s.Dimension("Org").SetEnd("Smith", y(2004)); err != nil {
				t.Fatal(err)
			}
		}},
		{"EndRelationship", func(t *testing.T, s *Schema) {
			s.Dimension("Org").EndRelationship("Brian", "R&D", y(2004))
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			s := splitSchema(t)
			before := s.MultiVersion()
			if _, err := before.Mode(TCM()); err != nil {
				t.Fatal(err)
			}
			svsBefore := len(s.StructureVersions())
			m.do(t, s) // no manual s.Invalidate()
			if after := s.MultiVersion(); after == before {
				t.Fatal("in-place dimension mutation did not invalidate the MVFT cache")
			}
			if svs := len(s.StructureVersions()); svs == svsBefore {
				// every mutation above changes the partition of history
				t.Fatalf("structure versions not recomputed: still %d", svs)
			}
		})
	}

	t.Run("CloneDimsRebound", func(t *testing.T) {
		s := splitSchema(t)
		cl := s.Clone()
		before := cl.MultiVersion()
		if _, err := before.Mode(TCM()); err != nil {
			t.Fatal(err)
		}
		if err := cl.Dimension("Org").SetEnd("Smith", y(2004)); err != nil {
			t.Fatal(err)
		}
		if after := cl.MultiVersion(); after == before {
			t.Fatal("mutation of a cloned dimension did not invalidate the clone's cache")
		}
	})
}

// equalMappedTables fails the test unless the two tables are
// bit-identical: same tuple order, coordinates, times, values (by
// Float64bits, so NaN and -0 count), confidences, source counts and
// Dropped.
func equalMappedTables(t *testing.T, label string, got, want *MappedTable) {
	t.Helper()
	if got.Dropped != want.Dropped {
		t.Fatalf("%s: Dropped = %d, want %d", label, got.Dropped, want.Dropped)
	}
	gf, wf := got.Facts(), want.Facts()
	if len(gf) != len(wf) {
		t.Fatalf("%s: %d tuples, want %d", label, len(gf), len(wf))
	}
	for i := range gf {
		g, w := gf[i], wf[i]
		if !g.Coords.Equal(w.Coords) || g.Time != w.Time || g.Sources != w.Sources {
			t.Fatalf("%s[%d]: (%v,%v,%d) vs (%v,%v,%d)", label, i,
				g.Coords, g.Time, g.Sources, w.Coords, w.Time, w.Sources)
		}
		for k := range g.Values {
			if math.Float64bits(g.Values[k]) != math.Float64bits(w.Values[k]) {
				t.Fatalf("%s[%d].Values[%d] = %v, want %v", label, i, k, g.Values[k], w.Values[k])
			}
			if g.CFs[k] != w.CFs[k] {
				t.Fatalf("%s[%d].CFs[%d] = %v, want %v", label, i, k, g.CFs[k], w.CFs[k])
			}
		}
	}
}

// TestWarmFromFactDelta verifies the tentpole end to end at the core
// layer: after a pure fact batch, every cached mode survives the
// clone-swap, the delta is folded in, the result is bit-identical to a
// cold rebuild, and the clone performed zero materializations.
func TestWarmFromFactDelta(t *testing.T) {
	base := splitSchema(t)
	baseMV := base.MultiVersion()
	for _, m := range base.Modes() {
		if _, err := baseMV.Mode(m); err != nil {
			t.Fatal(err)
		}
	}
	nModes := len(base.Modes())

	clone := base.Clone()
	oldLen := clone.Facts().Len()
	batch := []struct {
		id MVID
		at temporal.Instant
		v  float64
	}{{"Jones", ym(2002, 3), 25}, {"Bill", ym(2003, 5), 75}, {"Smith", ym(2001, 7), 5}}
	for _, b := range batch {
		if err := clone.InsertFact(Coords{b.id}, b.at, b.v); err != nil {
			t.Fatal(err)
		}
	}
	delta := Delta{NewFacts: clone.Facts().Facts()[oldLen:]}

	res := clone.WarmFrom(context.Background(), base, delta)
	if len(res.Retained) != nModes || len(res.Evicted) != 0 {
		t.Fatalf("retained %v evicted %v, want all %d modes retained", res.Retained, res.Evicted, nModes)
	}
	if res.DeltaApplied != nModes {
		t.Fatalf("DeltaApplied = %d, want %d", res.DeltaApplied, nModes)
	}

	cold := clone.Clone() // same facts, cold caches
	for _, m := range clone.Modes() {
		warmT, err := clone.MultiVersion().Mode(m)
		if err != nil {
			t.Fatal(err)
		}
		coldT, err := cold.MultiVersion().Mode(InVersionOf(cold, m))
		if err != nil {
			t.Fatal(err)
		}
		equalMappedTables(t, m.String(), warmT, coldT)
	}
	if b := clone.MultiVersion().Materializations(); b != 0 {
		t.Fatalf("warm clone performed %d materializations, want 0", b)
	}
	if d := clone.MultiVersion().DeltaApplies(); d != int64(nModes) {
		t.Fatalf("DeltaApplies = %d, want %d", d, nModes)
	}

	// The base's published tables must be untouched by the fold.
	for _, m := range base.Modes() {
		freshBase := splitSchema(t)
		wantT, err := freshBase.MultiVersion().Mode(InVersionOf(freshBase, m))
		if err != nil {
			t.Fatal(err)
		}
		gotT, err := baseMV.Mode(m)
		if err != nil {
			t.Fatal(err)
		}
		equalMappedTables(t, "base/"+m.String(), gotT, wantT)
	}
}

// InVersionOf translates a mode of one schema into the equivalent mode
// of another schema with the same structure-version partition.
func InVersionOf(s *Schema, m Mode) Mode {
	if m.Kind == TCMKind {
		return m
	}
	return InVersion(s.VersionByID(m.Version.ID))
}

// TestWarmFromStructureChange verifies structure-aware invalidation:
// a mutation that splits one structure version evicts the modes whose
// partition slice changed while tcm and untouched versions survive.
func TestWarmFromStructureChange(t *testing.T) {
	base := splitSchema(t)
	baseMV := base.MultiVersion()
	for _, m := range base.Modes() {
		if _, err := baseMV.Mode(m); err != nil {
			t.Fatal(err)
		}
	}

	clone := base.Clone()
	// End Brian in 2004: history gains a new structure version covering
	// [2004, ∞) and the final old version's interval is truncated, but
	// earlier versions keep their interval and signature.
	if err := clone.Dimension("Org").SetEnd("Brian", y(2004)); err != nil {
		t.Fatal(err)
	}
	delta := Delta{StructureChanged: true, DimsTouched: []DimID{"Org"}}
	res := clone.WarmFrom(context.Background(), base, delta)

	retained := map[string]bool{}
	for _, k := range res.Retained {
		retained[k] = true
	}
	if !retained["tcm"] {
		t.Fatalf("tcm evicted on a pure dimension change: %v", res.Retained)
	}
	if len(res.Evicted) == 0 {
		t.Fatalf("no mode evicted although the partition changed: retained %v", res.Retained)
	}
	for _, k := range res.Evicted {
		if k == "tcm" {
			t.Fatal("tcm must survive dimension mutations")
		}
	}

	// Retained version modes must be provably identical to cold rebuilds
	// on the new schema.
	cold := clone.Clone()
	for _, m := range clone.Modes() {
		if !retained[m.String()] {
			continue
		}
		warmT, err := clone.MultiVersion().Mode(m)
		if err != nil {
			t.Fatal(err)
		}
		coldT, err := cold.MultiVersion().Mode(InVersionOf(cold, m))
		if err != nil {
			t.Fatal(err)
		}
		equalMappedTables(t, m.String(), warmT, coldT)
	}
}

// TestWarmFromEvictsAll covers the blanket-eviction deltas: replaced
// facts and changed mappings.
func TestWarmFromEvictsAll(t *testing.T) {
	// A replacement evicts every version mode; tcm is the fact table,
	// which already holds the new value.
	t.Run("FactsReplaced", func(t *testing.T) {
		base := splitSchema(t)
		for _, m := range []Mode{TCM(), InVersion(base.VersionByID("V1"))} {
			if _, err := base.MultiVersion().Mode(m); err != nil {
				t.Fatal(err)
			}
		}
		clone := base.Clone()
		if err := clone.InsertFact(Coords{"Jones"}, y(2001), 1); err != nil {
			t.Fatal(err)
		}
		res := clone.WarmFrom(context.Background(), base, Delta{FactsReplaced: true})
		if len(res.Retained) != 1 || res.Retained[0] != "tcm" || len(res.Evicted) != 1 || res.Evicted[0] != "V1" {
			t.Fatalf("retained %v, evicted %v after an in-place replacement; want tcm retained, V1 evicted", res.Retained, res.Evicted)
		}
		mt, err := clone.MultiVersion().Mode(TCM())
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := mt.Lookup(Coords{"Jones"}, y(2001)); !ok || f.Values[0] != 1 {
			t.Fatalf("retained tcm holds %v, %v at the replaced cell, want 1", f, ok)
		}
	})
	t.Run("MappingsChanged", func(t *testing.T) {
		base := splitSchema(t)
		baseMV := base.MultiVersion()
		for _, m := range base.Modes() {
			if _, err := baseMV.Mode(m); err != nil {
				t.Fatal(err)
			}
		}
		clone := base.Clone()
		if err := clone.AddMapping(MappingRelationship{
			From: "Smith", To: "Brian",
			Forward:  []MeasureMapping{{Fn: Identity, CF: ExactMapping}},
			Backward: []MeasureMapping{{Fn: Identity, CF: ExactMapping}},
		}); err != nil {
			t.Fatal(err)
		}
		res := clone.WarmFrom(context.Background(), base, Delta{MappingsChanged: true})
		retained := map[string]bool{}
		for _, k := range res.Retained {
			retained[k] = true
		}
		if !retained["tcm"] || len(retained) != 1 {
			t.Fatalf("retained %v, want exactly tcm (mappings are global to version modes)", res.Retained)
		}
	})
}
