package core

import (
	"fmt"
	"math"
)

// Mapper is a mapping function fm from a measure domain into itself
// (Definition 7). The paper's prototype uses linear functions
// f(x) = k·x (§5.2); arbitrary functions and the unknown mapping are
// also supported. Mappers compose so that mapping chains across several
// transitions can be collapsed into a single function.
type Mapper interface {
	// Map applies the function. ok is false when the mapping is unknown,
	// in which case the value is unusable.
	Map(x float64) (value float64, ok bool)
	// Compose returns the mapper equivalent to applying the receiver
	// first and then next.
	Compose(next Mapper) Mapper
	// String describes the function in the paper's arrow notation.
	String() string
}

// Linear is the mapper f(x) = K·x used by the paper's prototype, where K
// represents a percentage or weighting of a measure (§5.2). Identity is
// Linear{1}.
type Linear struct{ K float64 }

// Map applies f(x) = K·x.
func (l Linear) Map(x float64) (float64, bool) { return l.K * x, true }

// Compose collapses chained linear functions by multiplying factors.
// Composition with a non-linear mapper falls back to function chaining.
func (l Linear) Compose(next Mapper) Mapper {
	switch n := next.(type) {
	case Linear:
		return Linear{l.K * n.K}
	case Unknown:
		return Unknown{}
	default:
		return chain{l, next}
	}
}

// String renders "x→0.4x" style notation; identity renders "x→x".
func (l Linear) String() string {
	if l.K == 1 {
		return "x->x"
	}
	return fmt.Sprintf("x->%g*x", l.K)
}

// Identity is the identity mapping x→x.
var Identity = Linear{K: 1}

// Unknown is the absent mapping function, written "-" in the paper's
// Table 11: no value can be derived across the transition.
type Unknown struct{}

// Map reports that no value can be produced.
func (Unknown) Map(x float64) (float64, bool) { return math.NaN(), false }

// Compose of an unknown mapping with anything stays unknown.
func (Unknown) Compose(Mapper) Mapper { return Unknown{} }

// String renders the paper's "-" notation.
func (Unknown) String() string { return "-" }

// Func is an arbitrary user-defined mapping function with a textual
// description for metadata.
type Func struct {
	F    func(float64) float64
	Desc string
}

// Map applies the wrapped function.
func (f Func) Map(x float64) (float64, bool) { return f.F(x), true }

// Compose chains the functions.
func (f Func) Compose(next Mapper) Mapper {
	if _, uk := next.(Unknown); uk {
		return Unknown{}
	}
	return chain{f, next}
}

// String returns the description.
func (f Func) String() string {
	if f.Desc != "" {
		return f.Desc
	}
	return "x->f(x)"
}

// chain applies first then second.
type chain struct{ first, second Mapper }

func (c chain) Map(x float64) (float64, bool) {
	v, ok := c.first.Map(x)
	if !ok {
		return math.NaN(), false
	}
	return c.second.Map(v)
}

func (c chain) Compose(next Mapper) Mapper {
	if _, uk := next.(Unknown); uk {
		return Unknown{}
	}
	return chain{c, next}
}

func (c chain) String() string { return c.first.String() + " ∘ " + c.second.String() }

// MeasureMapping is one pair <fm_k, cf_k> of Definition 7: a mapping
// function for one measure together with the confidence factor of that
// mapping.
type MeasureMapping struct {
	Fn Mapper
	CF Confidence
}

// String renders "(x→0.4x, am)".
func (m MeasureMapping) String() string { return fmt.Sprintf("(%s, %s)", m.Fn, m.CF) }

// UniformMapping builds a per-measure mapping list applying the same
// function and confidence to all m measures, the common case in the
// paper's examples.
func UniformMapping(m int, fn Mapper, cf Confidence) []MeasureMapping {
	out := make([]MeasureMapping, m)
	for i := range out {
		out[i] = MeasureMapping{Fn: fn, CF: cf}
	}
	return out
}

// MappingRelationship keeps the link across a member transition
// (Definition 7): From is the leaf member version before the change, To
// the one after. Forward holds one MeasureMapping per measure describing
// how values of From map onto To; Backward (F⁻¹ in the paper) describes
// the reverse direction. Mapping relationships are only meaningful for
// leaf member versions; non-leaf values are recomputed by aggregating
// their (mapped) children.
type MappingRelationship struct {
	From     MVID
	To       MVID
	Forward  []MeasureMapping
	Backward []MeasureMapping
}

// String renders the relationship in the paper's Example 6 notation.
func (m MappingRelationship) String() string {
	return fmt.Sprintf("<%s, %s, %v, %v>", m.From, m.To, m.Forward, m.Backward)
}

// Validate checks structural sanity for a schema with m measures.
func (m MappingRelationship) Validate(measures int) error {
	if m.From == "" || m.To == "" {
		return fmt.Errorf("core: mapping relationship with empty endpoint: %s", m)
	}
	if m.From == m.To {
		return fmt.Errorf("core: mapping relationship from %q to itself", m.From)
	}
	if len(m.Forward) != measures {
		return fmt.Errorf("core: mapping %s→%s: %d forward mappings for %d measures",
			m.From, m.To, len(m.Forward), measures)
	}
	if len(m.Backward) != measures {
		return fmt.Errorf("core: mapping %s→%s: %d backward mappings for %d measures",
			m.From, m.To, len(m.Backward), measures)
	}
	for i, mm := range append(append([]MeasureMapping{}, m.Forward...), m.Backward...) {
		if mm.Fn == nil {
			return fmt.Errorf("core: mapping %s→%s: nil mapper at %d", m.From, m.To, i)
		}
	}
	return nil
}

// resolution is one way of presenting a source leaf version inside a
// target structure version: the target leaf, plus the composed mapping
// function and confidence per measure.
type resolution struct {
	target MVID
	per    []MeasureMapping
}

// mappingGraph indexes mapping relationships for traversal in both
// directions. Once built it is a read-only snapshot: resolve allocates
// all of its mutable state per call, so one graph is safe to share
// across concurrent queries. A schema builds one per mapping set and
// algebra (Schema.mappingGraph), and resolution tables key on it.
type mappingGraph struct {
	forward  map[MVID][]*MappingRelationship // From -> rels
	backward map[MVID][]*MappingRelationship // To -> rels
	measures int
	alg      ConfidenceAlgebra
	// identity is the shared per-measure identity mapping used by every
	// self-resolution; read-only after construction.
	identity []MeasureMapping
}

func newMappingGraph(rels []MappingRelationship, measures int, alg ConfidenceAlgebra) *mappingGraph {
	g := &mappingGraph{
		forward:  make(map[MVID][]*MappingRelationship),
		backward: make(map[MVID][]*MappingRelationship),
		measures: measures,
		alg:      alg,
		identity: make([]MeasureMapping, measures),
	}
	for i := range g.identity {
		g.identity[i] = MeasureMapping{Fn: Identity, CF: SourceData}
	}
	for i := range rels {
		r := &rels[i]
		g.forward[r.From] = append(g.forward[r.From], r)
		g.backward[r.To] = append(g.backward[r.To], r)
	}
	return g
}

// resolve finds every presentation of source inside the set of
// acceptable target member versions, following mapping relationships
// forward (using Forward functions) and backward (using Backward
// functions). Functions compose along the path; confidences combine with
// ⊗cf. Search is breadth-first with a visited set, and stops expanding a
// node once it is itself an acceptable target, so data maps to the
// nearest version. If source is already acceptable it resolves to itself
// with identity mappings and SourceData confidence.
//
// resolve is safe for concurrent use: it only reads graph state and the
// per slices of returned resolutions may alias the graph's shared
// identity slice, so callers must treat them as read-only.
func (g *mappingGraph) resolve(source MVID, acceptable func(MVID) bool) []resolution {
	identity := g.identity
	if acceptable(source) {
		return []resolution{{target: source, per: identity}}
	}
	type node struct {
		id  MVID
		per []MeasureMapping
	}
	visited := map[MVID]bool{source: true}
	frontier := []node{{id: source, per: identity}}
	var out []resolution
	seenTarget := map[MVID]bool{}
	for len(frontier) > 0 {
		var next []node
		for _, n := range frontier {
			expand := func(other MVID, step []MeasureMapping) {
				if visited[other] {
					return
				}
				per := make([]MeasureMapping, g.measures)
				for k := 0; k < g.measures; k++ {
					per[k] = MeasureMapping{
						Fn: n.per[k].Fn.Compose(step[k].Fn),
						CF: g.alg.Combine(n.per[k].CF, step[k].CF),
					}
				}
				if acceptable(other) {
					if !seenTarget[other] {
						seenTarget[other] = true
						out = append(out, resolution{target: other, per: per})
					}
					// Do not expand beyond an acceptable target: data is
					// mapped to the nearest valid version.
					visited[other] = true
					return
				}
				visited[other] = true
				next = append(next, node{id: other, per: per})
			}
			for _, r := range g.forward[n.id] {
				expand(r.To, r.Forward)
			}
			for _, r := range g.backward[n.id] {
				expand(r.From, r.Backward)
			}
		}
		frontier = next
	}
	return out
}

// Resolution is one exported way of presenting a source leaf member
// version inside a target structure version: the target leaf plus, per
// measure, the composed mapping function and combined confidence.
type Resolution struct {
	Target MVID
	Per    []MeasureMapping
}

// ResolveInto computes every presentation of the source leaf member
// version among the leaf member versions of the target structure
// version, following mapping relationships forward (F) and backward
// (F⁻¹) and composing functions and confidences along the way. A source
// valid throughout the version resolves to itself with identity
// mappings and SourceData confidence. An empty result means the source
// cannot be presented in that version at all. The Per slices may be
// shared between resolutions; callers must treat them as read-only.
func (s *Schema) ResolveInto(source MVID, sv *StructureVersion) []Resolution {
	d := s.DimensionOf(source)
	if d == nil || sv == nil {
		return nil
	}
	g := s.mappingGraph()
	rt := d.resolveTableAt(g, sv.readAt(s.DimIndex(d.ID)))
	o := d.members[source].ord
	if rt.passes(o) {
		return []Resolution{{Target: source, Per: g.identity}}
	}
	out := make([]Resolution, 0, len(rt.of(o)))
	for _, tg := range rt.of(o) {
		out = append(out, Resolution{Target: d.order[tg.ord], Per: tg.per})
	}
	return out
}
