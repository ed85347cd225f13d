package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

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

func bucketOf(g TimeGrain, t temporal.Instant) (key string, order int64) {
	switch g {
	case GrainYear:
		return fmt.Sprintf("%d", t.YearOf()), int64(t.YearOf())
	case GrainQuarter:
		q := (t.MonthOf()-1)/3 + 1
		return fmt.Sprintf("Q%d/%d", q, t.YearOf()), int64(t.YearOf())*4 + int64(q)
	case GrainMonth:
		return t.String(), int64(t)
	default:
		return "all", 0
	}
}

// bucketRef is a time bucket as bucketOf renders it. A scan renders it
// once per instant and refers to it by ordinal from then on.
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

// Row is one line of a query result.
type Row struct {
	// TimeKey is the rendered time bucket ("2001", "Q2/2002", ...).
	TimeKey string
	// Groups holds the display names of the grouping members, aligned
	// with Query.GroupBy.
	Groups []string
	// GroupIDs holds the member version IDs behind Groups.
	GroupIDs []MVID
	// Values holds one aggregate per selected measure; NaN marks a value
	// whose mapping is unknown.
	Values []float64
	// CFs holds the combined confidence factor per value.
	CFs []Confidence
	// N counts the emissions folded into the row: one per mapped tuple
	// and per combination of its ancestors at the grouping levels that
	// lands in the row. A tuple whose ancestors include two member
	// versions sharing a display name emits into the row twice — its
	// value is folded twice and N counts 2. In a version mode the mapped
	// tuples are the mode's: source facts presented on one coordinate
	// were merged into one tuple before the scan.
	N int

	timeOrder int64
}

// Result is a query result: a header plus sorted rows.
type Result struct {
	// MeasureNames are the selected measures in output order.
	MeasureNames []string
	// GroupNames are the grouping level names in output order.
	GroupNames []string
	// Mode echoes the query's temporal mode of presentation.
	Mode Mode
	// Rows are sorted by time bucket, then group names.
	Rows []*Row
	// Dropped counts source facts not presentable in the mode.
	Dropped int
}

// Execute runs the query against the schema's MultiVersion Fact Table,
// performing Definition 12 data aggregation: measures fold under their
// aggregate function ⊕, confidence factors under ⊗cf, and rollup to the
// requested levels follows the temporal relationships of the mode's
// structure (the structure version's graph in a version mode, D(t) at
// each fact's instant in tcm).
func (s *Schema) Execute(q Query) (*Result, error) {
	return s.ExecuteContext(context.Background(), q)
}

// ExecuteContext is Execute with cancellation and tracing: the
// materialization and aggregation stages check ctx inside their
// per-fact loops (so a client disconnect or deadline stops work
// promptly), and when ctx carries an obs trace the two stages record
// "materialize" and "aggregate" spans with fact and row counts, the
// latter with one child span per stage of the scan (see executeOn).
// The query is resolved against the schema first: an unknown measure,
// dimension or level fails before anything is materialized.
func (s *Schema) ExecuteContext(ctx context.Context, q Query) (*Result, error) {
	plan, err := s.planScan(q)
	if err != nil {
		return nil, err
	}
	mctx, msp := obs.StartSpan(ctx, "materialize")
	msp.SetAttr("mode", q.Mode.String())
	mt, cached, err := s.MultiVersion().modeContext(mctx, q.Mode)
	if err == nil {
		msp.SetAttr("cached", cached)
		msp.SetAttr("facts", mt.Len())
		msp.SetAttr("dropped", mt.Dropped)
	}
	msp.End()
	if err != nil {
		return nil, err
	}
	actx, asp := obs.StartSpan(ctx, "aggregate")
	res, err := plan.executeOn(actx, mt)
	if err == nil {
		asp.SetAttr("rows", len(res.Rows))
	}
	asp.End()
	return res, err
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
	// unpruned turns zone-map pruning off, so the scan reads every
	// non-empty shard: the reference path the equivalence tests compare
	// pruning against. Plans built by planScan leave it false.
	unpruned bool
}

// scanDim is the graph one coordinate position rolls up in: the
// structure version's restricted dimension in a version mode — static,
// read at the version's start whatever the fact time — and D(t) of the
// schema's dimension at each fact's instant in tcm.
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

// scanDice is a filter: the display names a coordinate of dims[dim], or
// one of its ancestors, must carry. Only a dice on a static dimension
// may consult a shard zone's distinct-coordinate set for pruning (a
// time-dependent verdict cannot disqualify a whole shard).
type scanDice struct {
	dim   int
	names map[string]bool
}

// planScan resolves and validates the query's measures, axes and
// filters against the schema.
func (s *Schema) planScan(q Query) (*scanPlan, error) {
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
	useDim := func(pos int) int {
		for i := range p.dims {
			if p.dims[i].pos == pos {
				return i
			}
		}
		sd := scanDim{pos: pos, d: s.dims[pos]}
		if q.Mode.Kind == VersionKind && q.Mode.Version != nil {
			if rd := q.Mode.Version.Dimension(sd.d.ID); rd != nil {
				sd.d, sd.static, sd.at = rd, true, q.Mode.Version.Valid.Start
			}
		}
		p.dims = append(p.dims, sd)
		return len(p.dims) - 1
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
		p.axes = append(p.axes, scanAxis{dim: useDim(pos), level: g.Level})
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
		p.dices = append(p.dices, scanDice{dim: useDim(pos), names: names})
	}
	return p, nil
}

// executeOn aggregates the mode's mapped table in three stages, all on
// the calling goroutine. Prune drops the shards whose zone map rules
// them out. Scan walks the live shards in tuple order — range and dice
// filters, rollup to the grouping levels, the cell of each (tuple,
// combination) — and folds each shard's emissions into their cells
// before it moves on: the fold (Accumulator.Add and ⊗cf) is
// order-dependent, float Sum not being associative, and tuple order is
// the order Definition 12's reference fold uses. Sort puts the rows in
// result order; it is a total order over cells (equal sort keys imply
// the same cell).
func (p *scanPlan) executeOn(ctx context.Context, mt *MappedTable) (*Result, error) {
	_, sp := obs.StartSpan(ctx, "prune")
	live, pruned, t0, window := p.prune(mt)
	sp.SetAttr("shards", len(mt.shards))
	sp.SetAttr("shards_pruned", pruned.shards)
	sp.SetAttr("facts_pruned", pruned.facts)
	sp.End()
	metShardsPruned.Add(int64(pruned.shards))
	metFactsPruned.Add(int64(pruned.facts))

	_, sp = obs.StartSpan(ctx, "scan")
	sc := newScanner(p, mt, live, t0, window)
	rows, err := sc.scan(ctx)
	sp.SetAttr("tuples", sc.scanned)
	sp.SetAttr("emissions", sc.emitted)
	sp.SetAttr("cells", len(rows))
	sp.End()
	metFactsScanned.Add(int64(sc.scanned))
	if err != nil {
		metQueryCancelled.Inc()
		return nil, err
	}
	res := &Result{MeasureNames: p.mNames, GroupNames: p.gNames, Mode: p.mode, Rows: rows, Dropped: mt.Dropped}

	_, sp = obs.StartSpan(ctx, "sort")
	slices.SortFunc(res.Rows, func(a, b *Row) int {
		if c := cmp.Compare(a.timeOrder, b.timeOrder); c != 0 {
			return c
		}
		return slices.Compare(a.Groups, b.Groups)
	})
	sp.SetAttr("rows", len(res.Rows))
	sp.End()
	metQueryRows.Add(int64(len(res.Rows)))
	return res, nil
}

// prunedStats counts what zone-map pruning saved a scan.
type prunedStats struct{ shards, facts int }

// prune consults every shard's zone map and marks the live ones: a
// shard is skipped when no tuple instant can fall in the queried range,
// or when a dice on a static dimension has an exact distinct-coordinate
// set none of whose members passes. Both checks are conservative — a
// skipped shard provably emits nothing — so pruning is invisible in the
// result bits. Empty shards are neither live nor counted as pruned.
//
// t0 and window give the scan the span its instant-indexed slot array
// covers: the live zones' time hull inside the queried range,
// cut at maxSlotWindow instants.
func (p *scanPlan) prune(mt *MappedTable) (live []bool, pruned prunedStats, t0 temporal.Instant, window int) {
	live = make([]bool, len(mt.shards))
	verdicts := make([]*diceView, len(p.dices)) // built on first use
	hull := temporal.Interval{Start: 1, End: 0}
	for si, sh := range mt.shards {
		if sh.n == 0 {
			continue
		}
		z := sh.zoneMap(mt.nd)
		if !p.unpruned && p.zoneExcludes(z, verdicts) {
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
func (p *scanPlan) zoneExcludes(z *shardZone, verdicts []*diceView) bool {
	if !z.overlapsTime(p.rng) {
		return true
	}
dices:
	for di, dc := range p.dices {
		dim := &p.dims[dc.dim]
		if !dim.static || !z.hasDistinct(dim.pos) {
			continue
		}
		if verdicts[di] == nil {
			verdicts[di] = newDiceView(dim.d, dim.at, dc.names)
		}
		for _, id := range z.dims[dim.pos].distinct {
			if mv := dim.d.members[id]; mv != nil && verdicts[di].contains(mv.ord) {
				continue dices
			}
		}
		return true
	}
	return false
}

// underAnyNamedIn walks upward from id in the given dimension structure
// at the given instant, looking for any of the display names.
func underAnyNamedIn(d *Dimension, at temporal.Instant, id MVID, names map[string]bool) bool {
	seen := make(map[MVID]bool)
	var walk func(cur MVID) bool
	walk = func(cur MVID) bool {
		if seen[cur] {
			return false
		}
		seen[cur] = true
		mv := d.Version(cur)
		if mv == nil {
			return false
		}
		if names[mv.DisplayName()] {
			return true
		}
		for _, p := range d.ParentsAt(cur, at) {
			if walk(p.ID) {
				return true
			}
		}
		return false
	}
	return walk(id)
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
