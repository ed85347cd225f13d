package core

import (
	"math"
	"slices"

	"mvolap/internal/temporal"
)

// resolveTable presents the member versions of one dimension in one
// D(t) under one mapping set (Definition 11's f' for a version mode,
// one coordinate at a time): source member version ordinal → the span
// of its presentations, each a target leaf ordinal of D(t) with the
// composed mapping function and confidence per measure. It is
// O(members), built once per (chain entry, mapping graph) and
// immutable afterwards.
type resolveTable struct {
	graph *mappingGraph
	// spans[o] holds the presentations of source ordinal o in targets;
	// lo < 0 marks a pass-through (o is a leaf of D(t) that no other
	// ordinal presents on: values and confidences carry over as they
	// are), lo == hi one no mapping reaches (its tuples are dropped).
	spans   []resolveSpan
	targets []resolveTarget
	// groups lists, per target more than one source ordinal presents on,
	// the indexes in targets of those presentations: only they can land
	// on one (coordinates, instant) — and then only when their sources
	// hold tuples at one instant (newPresentation).
	groups [][]int32
	// canPass says sd ⊗cf sd is sd, so that a tuple presenting as
	// itself may be read as stored.
	canPass bool
	// dropping reports that some ordinal reaches no target.
	dropping bool
}

type resolveSpan struct{ lo, hi int32 }

// resolveTarget is one presentation of source ordinal src on target
// ordinal ord.
type resolveTarget struct {
	ord, src int32
	per      []MeasureMapping
}

// passes reports whether source ordinal o presents as itself and no
// other ordinal presents on it.
func (rt *resolveTable) passes(o int32) bool { return rt.spans[o].lo < 0 }

// of returns the presentations of source ordinal o; empty when it
// reaches none. o must not pass.
func (rt *resolveTable) of(o int32) []resolveTarget {
	sp := rt.spans[o]
	return rt.targets[sp.lo:sp.hi]
}

// drops reports whether source ordinal o reaches no target.
func (rt *resolveTable) drops(o int32) bool {
	sp := rt.spans[o]
	return sp.lo >= 0 && sp.lo == sp.hi
}

// buildResolveTable resolves every member version of the dimension into
// the leaves of D(at) through the mapping graph. Only ordinals that do
// not always pass through keep targets.
func (d *Dimension) buildResolveTable(g *mappingGraph, at temporal.Instant) *resolveTable {
	n := len(d.order)
	leaf := make(map[MVID]bool)
	for _, mv := range d.LeavesAt(at) {
		leaf[mv.ID] = true
	}
	accept := func(id MVID) bool { return leaf[id] }
	all := make([][]resolution, n)
	reached := make([]int32, n)
	for o, id := range d.order {
		all[o] = g.resolve(id, accept)
		for _, r := range all[o] {
			reached[d.members[r.target].ord]++
		}
	}
	// A pass-through reads the stored confidence sd, which is the
	// presented one only when sd ⊗cf sd is sd.
	rt := &resolveTable{graph: g, spans: make([]resolveSpan, n), canPass: g.alg.Combine(SourceData, SourceData) == SourceData}
	group := map[int32]int32{}
	for o, rs := range all {
		if rt.canPass && len(rs) == 1 && rs[0].target == d.order[o] && reached[o] == 1 {
			rt.spans[o] = resolveSpan{-1, -1}
			continue
		}
		rt.spans[o] = resolveSpan{int32(len(rt.targets)), int32(len(rt.targets) + len(rs))}
		rt.dropping = rt.dropping || len(rs) == 0
		for _, r := range rs {
			tg := resolveTarget{ord: d.members[r.target].ord, src: int32(o), per: r.per}
			if reached[tg.ord] > 1 {
				gi, ok := group[tg.ord]
				if !ok {
					gi = int32(len(rt.groups))
					group[tg.ord] = gi
					rt.groups = append(rt.groups, nil)
				}
				rt.groups[gi] = append(rt.groups[gi], int32(len(rt.targets)))
			}
			rt.targets = append(rt.targets, tg)
		}
	}
	rt.targets = slices.Clip(rt.targets)
	metResolveTablesBuilt.With(string(d.ID)).Inc()
	return rt
}

// resolveTableAt returns the resolution of the dimension into D(at)
// under g: the table of the chain entry holding at, built on first use
// and kept while the mapping graph stays and the lineage has not
// appended a member version past it. At an instant where the dimension
// holds nothing, every member reaches nothing.
func (d *Dimension) resolveTableAt(g *mappingGraph, at temporal.Instant) *resolveTable {
	entry := entryAt(d.chain(), at)
	if entry == nil {
		return d.buildResolveTable(g, at)
	}
	fits := func(rt *resolveTable) bool { return rt != nil && rt.graph == g && len(rt.spans) >= len(d.order) }
	if rt := entry.tables.resolve.Load(); fits(rt) {
		return rt
	}
	entry.tables.mu.Lock()
	defer entry.tables.mu.Unlock()
	if rt := entry.tables.resolve.Load(); fits(rt) {
		return rt
	}
	rt := d.buildResolveTable(g, entry.valid.Start)
	entry.tables.resolve.Store(rt)
	return rt
}

// resolveTables returns, per schema dimension, the resolution into the
// structure version sv under the schema's mapping graph.
func (s *Schema) resolveTables(sv *StructureVersion) []*resolveTable {
	g := s.mappingGraph()
	out := make([]*resolveTable, len(s.dims))
	for i, d := range s.dims {
		out[i] = d.resolveTableAt(g, sv.readAt(i))
	}
	return out
}

// presentation is a version mode over the store as it stands: per
// dimension, which source ordinals a scan reads as stored (pass) and
// which presentations may land on a tuple another one lands on
// (merges, by index in the resolution table's targets). Two
// presentations on one target can only meet at an instant at which both
// their sources hold a tuple, so a group's presentations merge only
// when the instants of their sources' live tuples overlap
// (FactTable.ords); an ordinal presenting as itself alone, with no
// merge, passes.
type presentation struct {
	pass   [][]bool
	merges [][]bool
}

// newPresentation reads the store's per-ordinal stats into the flags of
// the mode with the given resolution tables.
func newPresentation(res []*resolveTable, ft *FactTable) *presentation {
	pr := &presentation{pass: make([][]bool, len(res)), merges: make([][]bool, len(res))}
	for i, rt := range res {
		instants := func(k int32) (temporal.Interval, bool) {
			st := ft.ordStat(i, rt.targets[k].src)
			return st.instants, st.live > 0
		}
		merges := make([]bool, len(rt.targets))
		for _, g := range rt.groups {
			for a, ka := range g {
				ia, ok := instants(ka)
				if !ok {
					continue
				}
				for _, kb := range g[a+1:] {
					if ib, ok := instants(kb); ok && ia.Overlaps(ib) {
						merges[ka], merges[kb] = true, true
					}
				}
			}
		}
		pass := make([]bool, len(rt.spans))
		for o, sp := range rt.spans {
			pass[o] = sp.lo < 0 || rt.canPass && sp.hi == sp.lo+1 && rt.targets[sp.lo].ord == int32(o) && !merges[sp.lo]
		}
		pr.pass[i], pr.merges[i] = pass, merges
	}
	return pr
}

// presenter presents source tuples in a version mode through its
// resolution tables: a tuple fans out to one emission per combination
// of its coordinates' presentations (splits), values flow through the
// composed mapping functions dimension by dimension, and confidences
// combine under ⊗cf, starting from sd. It holds the scratch of one
// emission; a presenter is not safe for concurrent use.
//
//	if !pr.start(coords, values) { /* dropped */ }
//	for pr.next() { /* pr.coords, pr.values, pr.cfs, pr.merges */ }
type presenter struct {
	res []*resolveTable
	alg ConfidenceAlgebra
	// flags are the scan's presentation, nil in Schema.Present (which
	// merges by key whatever the flags say); base[i] is the index in
	// res[i].targets of perDim[i][0], -1 for a pass-through.
	flags  *presentation
	base   []int32
	perDim [][]resolveTarget
	combo  []int
	src    []float64
	more   bool
	// The current emission: target ordinals, values, confidences, and
	// whether it may land on a tuple another emission lands on.
	coords []int32
	values []float64
	cfs    []Confidence
	merges bool
	self   []resolveTarget // per dimension, a pass-through's one target
}

func newPresenter(res []*resolveTable, flags *presentation, nm int, alg ConfidenceAlgebra, identity []MeasureMapping) *presenter {
	nd := len(res)
	p := &presenter{
		res: res, alg: alg, flags: flags,
		base:   make([]int32, nd),
		perDim: make([][]resolveTarget, nd),
		combo:  make([]int, nd),
		coords: make([]int32, nd),
		values: make([]float64, nm),
		cfs:    make([]Confidence, nm),
		self:   make([]resolveTarget, nd),
	}
	for i := range p.self {
		p.self[i].per = identity
	}
	return p
}

// start begins presenting the source tuple with the given ordinals and
// values. It returns false, and next presents nothing, when a
// coordinate reaches no target.
func (p *presenter) start(src []int32, values []float64) bool {
	p.src, p.more = values, false
	for i, o := range src {
		if rt := p.res[i]; rt.passes(o) {
			p.self[i].ord = o
			p.perDim[i], p.base[i] = p.self[i:i+1], -1
		} else if p.perDim[i], p.base[i] = rt.of(o), rt.spans[o].lo; len(p.perDim[i]) == 0 {
			return false
		}
		p.combo[i] = 0
	}
	p.more = true
	return true
}

// next puts the tuple's next emission in the presenter's fields, in
// combination order, the first dimension varying fastest; false when
// there is none left.
func (p *presenter) next() bool {
	if !p.more {
		return false
	}
	copy(p.values, p.src)
	for k := range p.cfs {
		p.cfs[k] = SourceData
	}
	p.merges = false
	for i := range p.perDim {
		tg := &p.perDim[i][p.combo[i]]
		p.coords[i] = tg.ord
		if p.flags != nil && p.base[i] >= 0 && p.flags.merges[i][p.base[i]+int32(p.combo[i])] {
			p.merges = true
		}
		for k, mm := range tg.per {
			v, ok := mm.Fn.Map(p.values[k])
			if !ok {
				v = math.NaN()
			}
			p.values[k] = v
			p.cfs[k] = p.alg.Combine(p.cfs[k], mm.CF)
		}
	}
	// Advance the combination counter.
	i := 0
	for ; i < len(p.combo); i++ {
		if p.combo[i]++; p.combo[i] < len(p.perDim[i]) {
			break
		}
		p.combo[i] = 0
	}
	p.more = i < len(p.combo)
	return true
}
