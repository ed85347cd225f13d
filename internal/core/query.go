package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"

	"mvolap/internal/obs"
	"mvolap/internal/temporal"
)

// TimeGrain selects how fact instants are bucketed on the time axis of a
// query result.
type TimeGrain uint8

// Supported time grains.
const (
	// GrainAll folds the whole queried range into a single bucket.
	GrainAll TimeGrain = iota
	// GrainYear buckets by calendar year, the grain of the paper's
	// case-study queries.
	GrainYear
	// GrainQuarter buckets by calendar quarter.
	GrainQuarter
	// GrainMonth keeps the native month grain.
	GrainMonth
)

// String names the grain.
func (g TimeGrain) String() string {
	switch g {
	case GrainAll:
		return "all"
	case GrainYear:
		return "year"
	case GrainQuarter:
		return "quarter"
	case GrainMonth:
		return "month"
	}
	return fmt.Sprintf("TimeGrain(%d)", uint8(g))
}

// bucketOrder returns the position on the time axis of the bucket of t
// at grain g: instants of one bucket share it.
func bucketOrder(g TimeGrain, t temporal.Instant) int64 {
	switch g {
	case GrainYear:
		return int64(t.YearOf())
	case GrainQuarter:
		return int64(t.YearOf())*4 + int64((t.MonthOf()-1)/3+1)
	case GrainMonth:
		return int64(t)
	default:
		return 0
	}
}

// bucketKey renders the bucket of t at grain g: "2003", "Q2/2003",
// "05/2003" or "all".
func bucketKey(g TimeGrain, t temporal.Instant) string {
	switch g {
	case GrainYear:
		return strconv.Itoa(t.YearOf())
	case GrainQuarter:
		var b [24]byte
		q := byte('1' + (t.MonthOf()-1)/3)
		return string(strconv.AppendInt(append(b[:0], 'Q', q, '/'), int64(t.YearOf()), 10))
	case GrainMonth:
		return t.String()
	default:
		return "all"
	}
}

// bucketRef is a time bucket: its key and its order. A scan renders the
// key once per bucket and refers to the bucket by ordinal from then on.
type bucketRef struct {
	key   string
	order int64
}

// GroupBy names a grouping axis: a dimension and one of its levels
// (explicit tag or "depth-N" for derived levels).
type GroupBy struct {
	Dim   DimID
	Level string
}

// Filter restricts one dimension to facts lying under the named
// members: a fact passes when its (mode-mapped) coordinate in the
// dimension is one of the named members or has one as an ancestor in
// the mode's structure. Names are display names. This is the engine
// form of the OLAP slice (one name) and dice (several) operators.
type Filter struct {
	Dim     DimID
	Members []string
}

// Query is a multidimensional request against the MultiVersion Fact
// Table: which measures to aggregate, how to group members and time, the
// time range, and crucially the Temporal Mode of Presentation in which
// the user wants the data presented (Definition 10).
type Query struct {
	// Measures selects measures by name; empty means all.
	Measures []string
	// GroupBy lists the grouping axes; empty yields a grand total.
	GroupBy []GroupBy
	// Grain buckets the time axis.
	Grain TimeGrain
	// Range restricts fact instants; the zero interval means all time.
	Range temporal.Interval
	// Filters dice dimensions to members (and their descendants).
	Filters []Filter
	// Mode is the temporal mode of presentation.
	Mode Mode
}

// Key is the query's one canonical form, a deterministic and injective
// encoding of what the scan reads: the measures in order, duplicates
// kept; the group-bys in order; the filters, a conjunction of set
// tests, sorted by dimension with their members sorted and
// deduplicated; the grain; the effective range, a zero range written
// as Always; and the mode, tcm or a version's ID and structural
// signature. Every name is length-prefixed, so no name can forge a
// separator. Two queries with one key scan alike and return equal
// results, which is what the TQL result cache and the cube's aggregate
// cache key on.
func (q Query) Key() string {
	var buf [256]byte
	b := append(buf[:0], 'M')
	b = appendKeyInt(b, int64(len(q.Measures)))
	for _, m := range q.Measures {
		b = appendKeyName(b, m)
	}
	b = append(b, 'G')
	b = appendKeyInt(b, int64(len(q.GroupBy)))
	for _, g := range q.GroupBy {
		b = appendKeyName(appendKeyName(b, string(g.Dim)), g.Level)
	}
	b = append(b, 'F')
	b = appendKeyInt(b, int64(len(q.Filters)))
	for _, f := range keyFilters(q.Filters) {
		b = appendKeyInt(appendKeyName(b, string(f.Dim)), int64(len(f.Members)))
		for _, m := range f.Members {
			b = appendKeyName(b, m)
		}
	}
	rng := q.Range
	if rng == (temporal.Interval{}) {
		rng = temporal.Always
	}
	b = appendKeyInt(append(b, 'T'), int64(q.Grain))
	b = appendKeyInt(appendKeyInt(append(b, 'R'), int64(rng.Start)), int64(rng.End))
	switch {
	case q.Mode.Kind == TCMKind:
		b = append(b, 'C')
	case q.Mode.Kind == VersionKind && q.Mode.Version != nil:
		b = appendKeyName(appendKeyName(append(b, 'V'), q.Mode.Version.ID), q.Mode.Version.sig)
	default:
		b = appendKeyInt(append(b, '?'), int64(q.Mode.Kind))
	}
	return string(b)
}

// appendKeyInt appends n and its terminator.
func appendKeyInt(b []byte, n int64) []byte {
	return append(strconv.AppendInt(b, n, 10), ';')
}

// appendKeyName appends s behind its length.
func appendKeyName(b []byte, s string) []byte {
	return append(appendKeyInt(b, int64(len(s))), s...)
}

// keyFilters returns copies of the filters in the order Key writes
// them: each one's members sorted and deduplicated, the filters sorted
// by dimension, then by members.
func keyFilters(fs []Filter) []Filter {
	out := make([]Filter, len(fs))
	for i, f := range fs {
		ms := slices.Clone(f.Members)
		slices.Sort(ms)
		out[i] = Filter{Dim: f.Dim, Members: slices.Compact(ms)}
	}
	slices.SortFunc(out, func(a, b Filter) int {
		return cmp.Or(cmp.Compare(a.Dim, b.Dim), slices.Compare(a.Members, b.Members))
	})
	return out
}

// Execute runs the query against the schema's MultiVersion Fact Table,
// performing Definition 12 data aggregation: measures fold under their
// aggregate function ⊕, confidence factors under ⊗cf, and rollup to the
// requested levels follows the temporal relationships of the mode's
// structure (D at the structure version's instant in a version mode,
// D(t) at each fact's instant in tcm).
func (s *Schema) Execute(q Query) (*Result, error) {
	return s.ExecuteContext(context.Background(), q)
}

// ExecuteContext is Execute with cancellation and tracing: the scan
// checks ctx inside its per-tuple loop (so a client disconnect or
// deadline stops work promptly), and when ctx carries an obs trace it
// records a "resolve" span (the mode's resolution tables and its
// dropped facts) and an "aggregate" span with one child span per stage
// of the scan (see executeOn). The query is resolved against the schema
// first: an unknown measure, dimension, level or mode fails before
// anything is scanned.
//
// Every mode reads the one fact store: tcm as it is stored (Definition
// 11: f'|tcm = f × {sd}ᵐ), a version mode through one resolution table
// per dimension, so a mode holds no copy of the facts and no state
// that a write would have to carry.
func (s *Schema) ExecuteContext(ctx context.Context, q Query) (*Result, error) {
	plan, err := s.planScan(q)
	if err != nil {
		return nil, err
	}
	return s.execute(ctx, plan)
}

// execute runs a plan over the schema's fact store: in a version mode
// it first resolves the store into the version (a "resolve" span), then
// aggregates it (an "aggregate" span, executeOn).
func (s *Schema) execute(ctx context.Context, plan *scanPlan) (*Result, error) {
	ft := s.facts
	_, rsp := obs.StartSpan(ctx, "resolve")
	rsp.SetAttr("mode", plan.mode.String())
	dropped := 0
	if plan.mode.Kind == VersionKind {
		plan.res = s.resolveTables(plan.mode.Version)
		plan.pres = newPresentation(plan.res, ft)
		dropped = countDropped(ft, plan.res)
	}
	rsp.SetAttr("facts", ft.Len())
	rsp.SetAttr("dropped", dropped)
	rsp.End()
	actx, asp := obs.StartSpan(ctx, "aggregate")
	res, err := plan.executeOn(actx, ft)
	if err == nil {
		res.Dropped = dropped
		asp.SetAttr("rows", res.Len())
	}
	asp.End()
	return res, err
}

// countDropped counts the live tuples of the store that a version mode
// cannot present: a coordinate of theirs reaches no target through the
// mode's resolution tables. When only one dimension drops anything, it
// sums the live counts of the ordinals that dimension drops, in
// O(members); otherwise it reads the coordinates, skipping a shard
// whose zone lists its distinct coordinates, none of them dropping.
func countDropped(ft *FactTable, res []*resolveTable) int {
	var dims []int
	for i, rt := range res {
		if rt.dropping {
			dims = append(dims, i)
		}
	}
	n := 0
	switch {
	case len(dims) == 0 || ft.Len() == 0:
		return 0
	case len(dims) == 1:
		i := dims[0]
		for o, st := range ft.ordStats()[i] {
			if st.live != 0 && res[i].drops(int32(o)) {
				n += int(st.live)
			}
		}
		return n
	}
	nd := ft.nd
	for _, sh := range ft.shards {
		if !zoneMayDrop(sh.zoneMap(nd), dims, res) {
			continue
		}
		for j := 0; j < sh.n; j++ {
			if !sh.isLive(j) {
				continue
			}
			for _, i := range dims {
				if res[i].drops(sh.coords[j*nd+i]) {
					n++
					break
				}
			}
		}
	}
	return n
}

// zoneMayDrop reports whether a shard with zone z may hold a tuple a
// coordinate of which, at one of the positions dims, res drops.
func zoneMayDrop(z *shardZone, dims []int, res []*resolveTable) bool {
	for _, i := range dims {
		if z.distinct == nil || z.distinct[i] == nil || slices.ContainsFunc(z.distinct[i], res[i].drops) {
			return true
		}
	}
	return false
}

// scanPlan is a query resolved against the schema: what the stages of
// the scan read, nothing any of them writes.
type scanPlan struct {
	s      *Schema
	mode   Mode
	grain  TimeGrain
	rng    temporal.Interval
	mIdx   []int // selected measures as schema measure positions
	mNames []string
	gNames []string
	// dims lists each dimension an axis or a dice reads, once, with the
	// structure it rolls up in.
	dims  []scanDim
	axes  []scanAxis
	dices []scanDice
	// res holds, in a version mode, each dimension's resolution into the
	// version, and pres what it makes of the store (ExecuteContext sets
	// both); nil in tcm.
	res  []*resolveTable
	pres *presentation
	// unpruned turns zone-map pruning off, so the scan reads every
	// non-empty shard: the reference path the equivalence tests compare
	// pruning against. Plans built by planScan leave it false.
	unpruned bool
}

// scanDim is the graph one coordinate position rolls up in: the
// schema's dimension, read in a version mode at the version's instant
// whatever the fact time (static), and in tcm at each fact's instant.
type scanDim struct {
	pos    int
	d      *Dimension
	static bool
	at     temporal.Instant
}

// scanAxis is a GROUP BY axis: a level of dims[dim].
type scanAxis struct {
	dim   int
	level string
}

// scanDice is a filter: a coordinate of dims[dim] passes when it is a
// member version root accepts or lies under one in the structure it
// rolls up in. On a static dimension in holds that membership by member
// ordinal, one walk down from the roots (Dimension.under) that the scan
// and zone-map pruning both read; on a time-dependent one the scan
// builds one such column per chain entry it meets (scanner.diceAt).
// Only a static dice may rule a shard out by its zone's distinct
// coordinates: a shard spans instants of several structures.
type scanDice struct {
	dim  int
	root func(*MemberVersion) bool
	in   []bool
}

// planScan resolves and validates the query's measures, axes and
// filters against the schema.
func (s *Schema) planScan(q Query) (*scanPlan, error) {
	switch {
	case q.Mode.Kind != TCMKind && q.Mode.Kind != VersionKind:
		return nil, fmt.Errorf("core: unknown mode kind %d", q.Mode.Kind)
	case q.Mode.Kind == VersionKind && q.Mode.Version == nil:
		return nil, fmt.Errorf("core: version mode without structure version")
	}
	p := &scanPlan{s: s, mode: q.Mode, grain: q.Grain, rng: q.Range}
	if p.rng == (temporal.Interval{}) {
		p.rng = temporal.Always
	}
	if len(q.Measures) == 0 {
		for i, m := range s.measures {
			p.mIdx = append(p.mIdx, i)
			p.mNames = append(p.mNames, m.Name)
		}
	} else {
		for _, name := range q.Measures {
			i := s.MeasureIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("core: unknown measure %q", name)
			}
			p.mIdx = append(p.mIdx, i)
			p.mNames = append(p.mNames, name)
		}
	}
	for _, g := range q.GroupBy {
		pos := s.DimIndex(g.Dim)
		if pos < 0 {
			return nil, fmt.Errorf("core: unknown dimension %q", g.Dim)
		}
		// A level that exists at some instants only is legal (non-covering
		// hierarchy, Definition 4); one that never exists is a typo, not
		// an empty answer.
		if !s.dims[pos].hasLevel(g.Level) {
			return nil, fmt.Errorf("core: unknown level %q in dimension %q", g.Level, g.Dim)
		}
		p.axes = append(p.axes, scanAxis{dim: p.useDim(pos), level: g.Level})
		p.gNames = append(p.gNames, fmt.Sprintf("%s.%s", s.dims[pos].Name, g.Level))
	}
	for _, f := range q.Filters {
		pos := s.DimIndex(f.Dim)
		if pos < 0 {
			return nil, fmt.Errorf("core: unknown dimension %q in filter", f.Dim)
		}
		names := make(map[string]bool, len(f.Members))
		for _, n := range f.Members {
			names[n] = true
		}
		p.addDice(p.useDim(pos), func(mv *MemberVersion) bool { return names[mv.DisplayName()] })
	}
	return p, nil
}

// useDim returns the index in p.dims of the schema dimension at
// position pos, adding it on first use with the structure it rolls up
// in: the version's instant in a version mode, each fact's in tcm.
func (p *scanPlan) useDim(pos int) int {
	for i := range p.dims {
		if p.dims[i].pos == pos {
			return i
		}
	}
	sd := scanDim{pos: pos, d: p.s.dims[pos]}
	if p.mode.Kind == VersionKind {
		sd.static, sd.at = true, p.mode.Version.readAt(pos)
	}
	p.dims = append(p.dims, sd)
	return len(p.dims) - 1
}

// addDice dices dims[dim] to the member versions root accepts and those
// under them, building the membership column of a static dimension.
func (p *scanPlan) addDice(dim int, root func(*MemberVersion) bool) {
	dc := scanDice{dim: dim, root: root}
	if sd := &p.dims[dim]; sd.static {
		dc.in = sd.d.under(sd.at, root)
	}
	p.dices = append(p.dices, dc)
}

// executeOn aggregates the fact store in three stages, all on the
// calling goroutine. Prune drops the shards whose zone map rules
// them out. Scan walks the live shards in tuple order — range and dice
// filters, rollup to the grouping levels, the cell of each (tuple,
// combination) — and folds each shard's emissions into their cells
// before it moves on: the fold (⊕ into typed columns, and ⊗cf) is
// order-dependent, float Sum not being associative, and tuple order is
// the order Definition 12's reference fold uses. Sort ranks the cells'
// buckets and display names, orders the cells by those integers — a
// total order: equal keys are the same cell — and packs the cells into
// the result's columns in that order (scanner.order, scanner.result).
func (p *scanPlan) executeOn(ctx context.Context, ft *FactTable) (*Result, error) {
	_, sp := obs.StartSpan(ctx, "prune")
	live, pruned, t0, window := p.prune(ft)
	sp.SetAttr("shards", len(ft.shards))
	sp.SetAttr("shards_pruned", pruned.shards)
	sp.SetAttr("facts_pruned", pruned.facts)
	sp.End()
	metShardsPruned.Add(int64(pruned.shards))
	metFactsPruned.Add(int64(pruned.facts))

	_, sp = obs.StartSpan(ctx, "scan")
	sc := newScanner(p, ft, live, t0, window)
	err := sc.scan(ctx)
	sp.SetAttr("tuples", sc.scanned)
	sp.SetAttr("emissions", sc.emitted)
	sp.SetAttr("cells", int(sc.cells))
	sp.End()
	metFactsScanned.Add(int64(sc.scanned))
	if err != nil {
		metQueryCancelled.Inc()
		return nil, err
	}

	_, sp = obs.StartSpan(ctx, "sort")
	res := sc.result()
	sp.SetAttr("rows", res.Len())
	sp.End()
	metQueryRows.Add(int64(res.Len()))
	return res, nil
}

// prunedStats counts what zone-map pruning saved a scan.
type prunedStats struct{ shards, facts int }

// prune consults every shard's zone map and marks the live ones: a
// shard is skipped when no tuple instant can fall in the queried range,
// or when a dice on a static dimension has an exact distinct-coordinate
// set none of whose members passes — in a version mode, none of whose
// members has a target that passes. Both checks are conservative — a
// skipped shard provably emits nothing — so pruning is invisible in the
// result bits. Empty shards are neither live nor counted as pruned.
//
// t0 and window give the scan the span its instant-indexed slot array
// covers: the live zones' time hull inside the queried range,
// cut at maxSlotWindow instants.
func (p *scanPlan) prune(ft *FactTable) (live []bool, pruned prunedStats, t0 temporal.Instant, window int) {
	live = make([]bool, len(ft.shards))
	hull := temporal.Interval{Start: 1, End: 0}
	for si, sh := range ft.shards {
		if sh.n == 0 {
			continue
		}
		z := sh.zoneMap(ft.nd)
		if !p.unpruned && p.zoneExcludes(z) {
			pruned.shards++
			pruned.facts += sh.n
			continue
		}
		live[si] = true
		hull = hull.Hull(temporal.Between(z.minTime, z.maxTime))
	}
	if hull = hull.Intersect(p.rng); !hull.Empty() {
		window = int(min(uint64(hull.End-hull.Start), maxSlotWindow-1)) + 1
	}
	return live, pruned, hull.Start, window
}

// zoneExcludes reports whether the zone proves its shard emits nothing.
func (p *scanPlan) zoneExcludes(z *shardZone) bool {
	if !z.overlapsTime(p.rng) {
		return true
	}
dices:
	for _, dc := range p.dices {
		dim := &p.dims[dc.dim]
		if !dim.static || dim.pos >= len(z.distinct) || z.distinct[dim.pos] == nil {
			continue
		}
		for _, ord := range z.distinct[dim.pos] {
			if p.res == nil || p.res[dim.pos].passes(ord) {
				if dc.in[ord] {
					continue dices
				}
				continue
			}
			for _, tg := range p.res[dim.pos].of(ord) {
				if dc.in[tg.ord] {
					continue dices
				}
			}
		}
		return true
	}
	return false
}

// FormatValue renders a measure value, with unknown (NaN) shown as "?".
func FormatValue(v float64) string {
	if math.IsNaN(v) {
		return "?"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
