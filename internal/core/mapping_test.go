package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinearMapper(t *testing.T) {
	m := Linear{K: 0.4}
	v, ok := m.Map(100)
	if !ok || v != 40 {
		t.Errorf("Map(100) = %v, %v", v, ok)
	}
	if m.String() != "x->0.4*x" {
		t.Errorf("String = %q", m.String())
	}
	if Identity.String() != "x->x" {
		t.Errorf("identity String = %q", Identity.String())
	}
}

func TestLinearComposition(t *testing.T) {
	c := Linear{K: 0.4}.Compose(Linear{K: 0.5})
	l, ok := c.(Linear)
	if !ok {
		t.Fatalf("linear∘linear should stay linear, got %T", c)
	}
	if math.Abs(l.K-0.2) > 1e-12 {
		t.Errorf("composed K = %v, want 0.2", l.K)
	}
}

func TestLinearCompositionProperty(t *testing.T) {
	f := func(k1, k2, x float64) bool {
		if math.IsNaN(k1) || math.IsNaN(k2) || math.IsNaN(x) ||
			math.IsInf(k1, 0) || math.IsInf(k2, 0) || math.IsInf(x, 0) {
			return true
		}
		composed, _ := Linear{k1}.Compose(Linear{k2}).Map(x)
		direct := k2 * (k1 * x)
		if math.IsNaN(composed) && math.IsNaN(direct) {
			return true
		}
		return composed == direct ||
			math.Abs(composed-direct) <= 1e-9*math.Max(math.Abs(composed), math.Abs(direct))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnknownMapper(t *testing.T) {
	uk := Unknown{}
	_, ok := uk.Map(1)
	if ok {
		t.Error("unknown mapping must report not-ok")
	}
	if uk.String() != "-" {
		t.Errorf("String = %q", uk.String())
	}
	// Unknown poisons composition in both directions.
	if _, ok := uk.Compose(Linear{2}).Map(1); ok {
		t.Error("uk∘linear must stay unknown")
	}
	if _, ok := (Linear{2}).Compose(Unknown{}).Map(1); ok {
		t.Error("linear∘uk must stay unknown")
	}
	if _, ok := (Func{F: func(x float64) float64 { return x }}).Compose(Unknown{}).Map(1); ok {
		t.Error("func∘uk must stay unknown")
	}
}

func TestFuncMapper(t *testing.T) {
	sq := Func{F: func(x float64) float64 { return x * x }, Desc: "x->x^2"}
	v, ok := sq.Map(3)
	if !ok || v != 9 {
		t.Errorf("Map(3) = %v, %v", v, ok)
	}
	if sq.String() != "x->x^2" {
		t.Errorf("String = %q", sq.String())
	}
	if (Func{F: func(x float64) float64 { return x }}).String() != "x->f(x)" {
		t.Error("default Func description")
	}
	// func∘linear chains left-to-right: square then halve.
	c := sq.Compose(Linear{0.5})
	v, ok = c.Map(4)
	if !ok || v != 8 {
		t.Errorf("chain Map(4) = %v, want 8", v)
	}
	// linear∘func also chains: halve then square.
	c2 := Linear{0.5}.Compose(sq)
	v, ok = c2.Map(4)
	if !ok || v != 4 {
		t.Errorf("chain2 Map(4) = %v, want 4", v)
	}
	if c2.String() == "" {
		t.Error("chain String must describe both stages")
	}
	// chain composes further.
	c3 := c2.Compose(Linear{10})
	v, ok = c3.Map(4)
	if !ok || v != 40 {
		t.Errorf("chain3 Map(4) = %v, want 40", v)
	}
	if _, okc := c2.Compose(Unknown{}).Map(1); okc {
		t.Error("chain∘uk must stay unknown")
	}
}

func TestUniformMapping(t *testing.T) {
	ms := UniformMapping(3, Identity, ExactMapping)
	if len(ms) != 3 {
		t.Fatalf("len = %d", len(ms))
	}
	for _, m := range ms {
		if m.CF != ExactMapping {
			t.Errorf("cf = %v", m.CF)
		}
		if v, _ := m.Fn.Map(7); v != 7 {
			t.Errorf("fn(7) = %v", v)
		}
	}
	if ms[0].String() != "(x->x, em)" {
		t.Errorf("String = %q", ms[0].String())
	}
}

func TestMappingRelationshipValidate(t *testing.T) {
	good := MappingRelationship{
		From:     "a",
		To:       "b",
		Forward:  UniformMapping(1, Identity, ExactMapping),
		Backward: UniformMapping(1, Identity, ExactMapping),
	}
	if err := good.Validate(1); err != nil {
		t.Errorf("good relationship rejected: %v", err)
	}
	cases := []struct {
		name string
		mr   MappingRelationship
	}{
		{"empty endpoint", MappingRelationship{From: "", To: "b",
			Forward: UniformMapping(1, Identity, ExactMapping), Backward: UniformMapping(1, Identity, ExactMapping)}},
		{"self", MappingRelationship{From: "a", To: "a",
			Forward: UniformMapping(1, Identity, ExactMapping), Backward: UniformMapping(1, Identity, ExactMapping)}},
		{"forward arity", MappingRelationship{From: "a", To: "b",
			Forward: UniformMapping(2, Identity, ExactMapping), Backward: UniformMapping(1, Identity, ExactMapping)}},
		{"backward arity", MappingRelationship{From: "a", To: "b",
			Forward: UniformMapping(1, Identity, ExactMapping), Backward: nil}},
		{"nil mapper", MappingRelationship{From: "a", To: "b",
			Forward: []MeasureMapping{{Fn: nil}}, Backward: UniformMapping(1, Identity, ExactMapping)}},
	}
	for _, c := range cases {
		if err := c.mr.Validate(1); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if good.String() == "" {
		t.Error("String must render")
	}
}

// splitGraph builds the case-study mapping graph: Jones → Bill (0.4, am)
// and Jones → Paul (0.6, am), backward identity em.
func splitGraph() *mappingGraph {
	rels := []MappingRelationship{
		{From: "Jones", To: "Bill",
			Forward:  []MeasureMapping{{Fn: Linear{0.4}, CF: ApproxMapping}},
			Backward: []MeasureMapping{{Fn: Identity, CF: ExactMapping}}},
		{From: "Jones", To: "Paul",
			Forward:  []MeasureMapping{{Fn: Linear{0.6}, CF: ApproxMapping}},
			Backward: []MeasureMapping{{Fn: Identity, CF: ExactMapping}}},
	}
	return newMappingGraph(rels, 1, PaperAlgebra())
}

func acceptSet(ids ...MVID) func(MVID) bool {
	set := make(map[MVID]bool)
	for _, id := range ids {
		set[id] = true
	}
	return func(id MVID) bool { return set[id] }
}

func TestResolveIdentity(t *testing.T) {
	g := splitGraph()
	rs := g.resolve("Jones", acceptSet("Jones", "Bill"))
	if len(rs) != 1 || rs[0].target != "Jones" {
		t.Fatalf("resolve to self failed: %+v", rs)
	}
	if rs[0].per[0].CF != SourceData {
		t.Errorf("self resolution cf = %v", rs[0].per[0].CF)
	}
}

func TestResolveSplitForward(t *testing.T) {
	g := splitGraph()
	rs := g.resolve("Jones", acceptSet("Bill", "Paul", "Smith"))
	if len(rs) != 2 {
		t.Fatalf("split must fan out to 2 targets, got %+v", rs)
	}
	byTarget := map[MVID]resolution{}
	for _, r := range rs {
		byTarget[r.target] = r
	}
	if v, _ := byTarget["Bill"].per[0].Fn.Map(100); v != 40 {
		t.Errorf("Bill mapping(100) = %v, want 40", v)
	}
	if v, _ := byTarget["Paul"].per[0].Fn.Map(100); v != 60 {
		t.Errorf("Paul mapping(100) = %v, want 60", v)
	}
	for id, r := range byTarget {
		if r.per[0].CF != ApproxMapping {
			t.Errorf("%s cf = %v, want am", id, r.per[0].CF)
		}
	}
}

func TestResolveMergeBackward(t *testing.T) {
	g := splitGraph()
	rs := g.resolve("Bill", acceptSet("Jones"))
	if len(rs) != 1 || rs[0].target != "Jones" {
		t.Fatalf("backward resolution = %+v", rs)
	}
	if v, _ := rs[0].per[0].Fn.Map(150); v != 150 {
		t.Errorf("backward map(150) = %v", v)
	}
	if rs[0].per[0].CF != ExactMapping {
		t.Errorf("backward cf = %v, want em", rs[0].per[0].CF)
	}
}

func TestResolveTransitiveChain(t *testing.T) {
	// a → b → c, each exact halving; a must reach c with k=0.25 and em.
	rels := []MappingRelationship{
		{From: "a", To: "b",
			Forward:  []MeasureMapping{{Fn: Linear{0.5}, CF: ExactMapping}},
			Backward: []MeasureMapping{{Fn: Linear{2}, CF: ExactMapping}}},
		{From: "b", To: "c",
			Forward:  []MeasureMapping{{Fn: Linear{0.5}, CF: ExactMapping}},
			Backward: []MeasureMapping{{Fn: Linear{2}, CF: ExactMapping}}},
	}
	g := newMappingGraph(rels, 1, PaperAlgebra())
	rs := g.resolve("a", acceptSet("c"))
	if len(rs) != 1 || rs[0].target != "c" {
		t.Fatalf("transitive resolution = %+v", rs)
	}
	if v, _ := rs[0].per[0].Fn.Map(100); v != 25 {
		t.Errorf("composed map(100) = %v, want 25", v)
	}
	// Reverse direction composes the backward functions.
	back := g.resolve("c", acceptSet("a"))
	if len(back) != 1 {
		t.Fatalf("reverse transitive failed: %+v", back)
	}
	if v, _ := back[0].per[0].Fn.Map(25); v != 100 {
		t.Errorf("reverse composed map(25) = %v, want 100", v)
	}
}

func TestResolveStopsAtNearestTarget(t *testing.T) {
	// a → b → c where both b and c are acceptable: data maps to b only
	// (nearest version), not through it to c.
	rels := []MappingRelationship{
		{From: "a", To: "b",
			Forward:  []MeasureMapping{{Fn: Identity, CF: ExactMapping}},
			Backward: []MeasureMapping{{Fn: Identity, CF: ExactMapping}}},
		{From: "b", To: "c",
			Forward:  []MeasureMapping{{Fn: Identity, CF: ExactMapping}},
			Backward: []MeasureMapping{{Fn: Identity, CF: ExactMapping}}},
	}
	g := newMappingGraph(rels, 1, PaperAlgebra())
	rs := g.resolve("a", acceptSet("b", "c"))
	if len(rs) != 1 || rs[0].target != "b" {
		t.Errorf("resolution must stop at the nearest target, got %+v", rs)
	}
}

func TestResolveUnreachable(t *testing.T) {
	g := splitGraph()
	if rs := g.resolve("Smith", acceptSet("Bill")); len(rs) != 0 {
		t.Errorf("unreachable source resolved to %+v", rs)
	}
}

func TestResolveUnknownMapping(t *testing.T) {
	// Merge of V1, V2 into V12 where the backward mapping to V2 is
	// unknown (Table 11's merge example): resolving V12 back to V2
	// produces a target with an Unknown mapper and uk confidence.
	rels := []MappingRelationship{
		{From: "V2", To: "V12",
			Forward:  []MeasureMapping{{Fn: Identity, CF: ExactMapping}},
			Backward: []MeasureMapping{{Fn: Unknown{}, CF: UnknownMapping}}},
	}
	g := newMappingGraph(rels, 1, PaperAlgebra())
	rs := g.resolve("V12", acceptSet("V2"))
	if len(rs) != 1 {
		t.Fatalf("resolution = %+v", rs)
	}
	if _, ok := rs[0].per[0].Fn.Map(100); ok {
		t.Error("mapper must be unknown")
	}
	if rs[0].per[0].CF != UnknownMapping {
		t.Errorf("cf = %v, want uk", rs[0].per[0].CF)
	}
}

func TestResolveCycleTermination(t *testing.T) {
	// a ↔ b cycle plus an exit; resolution must terminate.
	rels := []MappingRelationship{
		{From: "a", To: "b",
			Forward:  UniformMapping(1, Identity, ExactMapping),
			Backward: UniformMapping(1, Identity, ExactMapping)},
		{From: "b", To: "a",
			Forward:  UniformMapping(1, Identity, ExactMapping),
			Backward: UniformMapping(1, Identity, ExactMapping)},
		{From: "b", To: "c",
			Forward:  UniformMapping(1, Identity, ExactMapping),
			Backward: UniformMapping(1, Identity, ExactMapping)},
	}
	g := newMappingGraph(rels, 1, PaperAlgebra())
	rs := g.resolve("a", acceptSet("c"))
	if len(rs) != 1 || rs[0].target != "c" {
		t.Errorf("cycle resolution = %+v", rs)
	}
}

func TestResolveIntoExported(t *testing.T) {
	s := splitSchema(t)
	v3 := s.VersionAt(y(2003))
	rs := s.ResolveInto("Jones", v3)
	if len(rs) != 2 {
		t.Fatalf("resolutions = %+v", rs)
	}
	byTarget := map[MVID]Resolution{}
	for _, r := range rs {
		byTarget[r.Target] = r
	}
	bill, ok := byTarget["Bill"]
	if !ok {
		t.Fatal("Bill missing")
	}
	if v, _ := bill.Per[0].Fn.Map(100); v != 40 {
		t.Errorf("Bill mapping = %v", v)
	}
	if bill.Per[0].CF != ApproxMapping {
		t.Errorf("Bill cf = %v", bill.Per[0].CF)
	}
	// Identity resolution for a member valid in the version.
	rs = s.ResolveInto("Smith", v3)
	if len(rs) != 1 || rs[0].Target != "Smith" || rs[0].Per[0].CF != SourceData {
		t.Errorf("Smith resolution = %+v", rs)
	}
	// Unknown member and nil version yield nothing.
	if rs := s.ResolveInto("zz", v3); rs != nil {
		t.Errorf("unknown member resolved: %+v", rs)
	}
	if rs := s.ResolveInto("Jones", nil); rs != nil {
		t.Errorf("nil version resolved: %+v", rs)
	}
}

// TestSchemaWithQuantitativeAlgebra runs the case-study mapping under
// the quantitative ⊗cf: long approximate chains degrade toward uk.
func TestSchemaWithQuantitativeAlgebra(t *testing.T) {
	s := splitSchema(t)
	s.SetConfidenceAlgebra(NewQuantitativeAlgebra())
	if s.ConfidenceAlgebra().Name() != "quantitative" {
		t.Fatal("algebra not installed")
	}
	s.Invalidate()
	v3 := s.VersionAt(y(2003))
	facts, _ := presented(t, s, InVersion(v3))
	bill, ok := presentedAt(facts, Coords{"Bill"}, y(2001))
	if !ok || bill.Values[0] != 40 {
		t.Fatalf("mapped value = %+v", bill)
	}
	// One am step under quantitative reliabilities (1×0.5) classifies am.
	if bill.CFs[0] != ApproxMapping {
		t.Errorf("quantitative cf = %v", bill.CFs[0])
	}
}
