package core

import (
	"context"
	"fmt"
	"reflect"
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
// schema's derived caches used to survive unless the caller remembered
// Schema.Invalidate. Every mutator must invalidate through the
// dimension's schema callback, so the structure versions — and with
// them the modes f' is presented in — are derived afresh.
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
			svsBefore := len(s.StructureVersions())
			m.do(t, s) // no manual s.Invalidate()
			if svs := len(s.StructureVersions()); svs == svsBefore {
				// every mutation above changes the partition of history
				t.Fatalf("structure versions not recomputed: still %d", svs)
			}
		})
	}

	t.Run("CloneDimsRebound", func(t *testing.T) {
		s := splitSchema(t)
		cl := s.Clone()
		svsBefore := len(cl.StructureVersions())
		if err := cl.Dimension("Org").SetEnd("Smith", y(2004)); err != nil {
			t.Fatal(err)
		}
		if svs := len(cl.StructureVersions()); svs == svsBefore {
			t.Fatalf("mutation of a cloned dimension did not invalidate the clone's structure versions: still %d", svs)
		}
		if svs := len(s.StructureVersions()); svs != svsBefore {
			t.Fatalf("mutation of a cloned dimension changed the source's structure versions: %d, want %d", svs, svsBefore)
		}
	})
}

// answerQueries are the fixed questions modesMatchCold asks in every
// mode: a grand total, a rollup at each year, a drill to the leaves, and
// a dice.
var answerQueries = []Query{
	{Grain: GrainAll},
	{GroupBy: []GroupBy{{Dim: "Org", Level: "Division"}}, Grain: GrainYear},
	{GroupBy: []GroupBy{{Dim: "Org", Level: "Department"}}, Grain: GrainMonth},
	{GroupBy: []GroupBy{{Dim: "Org", Level: "Department"}}, Grain: GrainYear, Filters: []Filter{{Dim: "Org", Members: []string{"Sales"}}}},
}

// answers runs answerQueries in every mode of s.
func answers(t *testing.T, s *Schema) []*Result {
	t.Helper()
	var out []*Result
	for _, m := range s.Modes() {
		for _, q := range answerQueries {
			q.Mode = m
			res, err := s.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
	}
	return out
}

// requireSameAnswers fails unless two answer sets are bit-identical.
func requireSameAnswers(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", label, len(got), len(want))
	}
	for i := range want {
		requireBitIdentical(t, fmt.Sprintf("%s answer %d", label, i), got[i], want[i])
	}
}

// modesMatchCold holds every mode of a lineage generation to a cold
// clone of it — one that shares no chain, rollup or resolution table —
// and to the oracle: the fixed query set answers bit for bit alike.
func modesMatchCold(t *testing.T, label string, s *Schema) {
	t.Helper()
	requireSameAnswers(t, label+" vs cold", answers(t, s), answers(t, coldClone(s)))
	for _, m := range s.Modes() {
		for _, q := range answerQueries {
			q.Mode = m
			requireMatchesOracle(t, label+" "+m.String(), s, q)
		}
	}
}

// TestWarmFromFactDelta verifies at the core layer that a pure fact
// batch leaves no mode to maintain: WarmFrom carries nothing, the clone
// answers in every mode like a cold rebuild and the oracle, and the base
// generation answers as it did.
func TestWarmFromFactDelta(t *testing.T) {
	base := splitSchema(t)
	before := answers(t, base)

	clone := base.Clone()
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
	if res := clone.WarmFrom(context.Background(), base, clone.Delta()); !reflect.DeepEqual(res, WarmResult{}) {
		t.Fatalf("WarmFrom = %+v, want nothing carried", res)
	}
	modesMatchCold(t, "clone", clone)
	requireSameAnswers(t, "base", answers(t, base), before)
}

// TestWarmFromStructureChange verifies that a mutation splitting one
// structure version leaves every mode of the clone answering like a
// cold rebuild, and the base's answers as they were.
func TestWarmFromStructureChange(t *testing.T) {
	base := splitSchema(t)
	before := answers(t, base)

	clone := base.Clone()
	// End Brian in 2004: history gains a new structure version covering
	// [2004, ∞) and the final old version's interval is truncated, but
	// earlier versions keep their interval and signature.
	if err := clone.Dimension("Org").SetEnd("Brian", y(2004)); err != nil {
		t.Fatal(err)
	}
	if n, m := len(clone.Modes()), len(base.Modes()); n != m+1 {
		t.Fatalf("%d modes after the split, want %d", n, m+1)
	}
	clone.WarmFrom(context.Background(), base, clone.Delta())
	modesMatchCold(t, "clone", clone)
	requireSameAnswers(t, "base", answers(t, base), before)
}

// TestWarmFromEvictsAll covers the deltas that used to evict every
// version mode, replaced facts and changed mappings: the clone's modes
// present the new state at once.
func TestWarmFromEvictsAll(t *testing.T) {
	// A replacement rewrites the stored value, which every mode reads.
	t.Run("FactsReplaced", func(t *testing.T) {
		base := splitSchema(t)
		before := answers(t, base)
		clone := base.Clone()
		if err := clone.InsertFact(Coords{"Jones"}, y(2001), 1); err != nil {
			t.Fatal(err)
		}
		if v, ok := clone.Facts().Lookup(Coords{"Jones"}, y(2001)); !ok || v[0] != 1 {
			t.Fatalf("tcm holds %v, %v at the replaced cell, want 1", v, ok)
		}
		modesMatchCold(t, "clone", clone)
		requireSameAnswers(t, "base", answers(t, base), before)
	})
	// A mapping changes every version mode's resolution tables.
	t.Run("MappingsChanged", func(t *testing.T) {
		base := splitSchema(t)
		before := answers(t, base)
		clone := base.Clone()
		// Bill, which V1 does not hold, now presents on Smith as well as
		// on Jones.
		if err := clone.AddMapping(MappingRelationship{
			From: "Bill", To: "Smith",
			Forward:  []MeasureMapping{{Fn: Identity, CF: ExactMapping}},
			Backward: []MeasureMapping{{Fn: Identity, CF: ExactMapping}},
		}); err != nil {
			t.Fatal(err)
		}
		modesMatchCold(t, "clone", clone)
		requireSameAnswers(t, "base", answers(t, base), before)
		v1 := Query{Grain: GrainAll, Mode: InVersion(clone.VersionByID("V1"))}
		got, err := clone.Execute(v1)
		if err != nil {
			t.Fatal(err)
		}
		v1.Mode = InVersion(base.VersionByID("V1"))
		was, err := base.Execute(v1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows()[0].Values[0] != was.Rows()[0].Values[0]+150 {
			t.Fatalf("V1 total %v after the mapping, want %v + Bill's 150", got.Rows()[0].Values[0], was.Rows()[0].Values[0])
		}
	})
}
