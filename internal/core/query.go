package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

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

// bucketRef is a memoized bucketOf result. Fact instants repeat heavily
// (a month of data is one instant), so the per-tuple rendering cost of
// bucketOf collapses to a map probe.
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
	// N counts the mapped tuples folded into the row.
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
// "materialize" and "aggregate" spans with fact and row counts.
func (s *Schema) ExecuteContext(ctx context.Context, q Query) (*Result, error) {
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
	res, err := s.executeOn(actx, mt, q)
	if err == nil {
		asp.SetAttr("rows", len(res.Rows))
	}
	asp.End()
	return res, err
}

func (s *Schema) executeOn(ctx context.Context, mt *MappedTable, q Query) (*Result, error) {
	// Resolve measure selection.
	mIdx := make([]int, 0, len(s.measures))
	var mNames []string
	if len(q.Measures) == 0 {
		for i, m := range s.measures {
			mIdx = append(mIdx, i)
			mNames = append(mNames, m.Name)
		}
	} else {
		for _, name := range q.Measures {
			i := s.MeasureIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("core: unknown measure %q", name)
			}
			mIdx = append(mIdx, i)
			mNames = append(mNames, name)
		}
	}
	// Resolve grouping dimensions.
	type axis struct {
		dimPos int
		level  string
	}
	axes := make([]axis, 0, len(q.GroupBy))
	var gNames []string
	for _, g := range q.GroupBy {
		pos := s.DimIndex(g.Dim)
		if pos < 0 {
			return nil, fmt.Errorf("core: unknown dimension %q", g.Dim)
		}
		axes = append(axes, axis{dimPos: pos, level: g.Level})
		gNames = append(gNames, fmt.Sprintf("%s.%s", s.dims[pos].Name, g.Level))
	}

	rng := q.Range
	if rng == (temporal.Interval{}) {
		rng = temporal.Always
	}

	lookup := newRollupCache(s, q.Mode)

	type dice struct {
		dimPos int
		names  map[string]bool
		// static marks a dice whose rollup instant does not depend on
		// the fact time: a version mode with the dimension restricted
		// into the structure version. Only static dices may consult a
		// shard zone's distinct-coordinate set for pruning (a
		// time-dependent verdict cannot disqualify a whole shard).
		static bool
	}
	dices := make([]dice, 0, len(q.Filters))
	for _, f := range q.Filters {
		pos := s.DimIndex(f.Dim)
		if pos < 0 {
			return nil, fmt.Errorf("core: unknown dimension %q in filter", f.Dim)
		}
		names := make(map[string]bool, len(f.Members))
		for _, n := range f.Members {
			names[n] = true
		}
		static := q.Mode.Kind == VersionKind && q.Mode.Version != nil &&
			q.Mode.Version.Dimension(s.dims[pos].ID) != nil
		dices = append(dices, dice{dimPos: pos, names: names, static: static})
	}

	// skipShard consults the shard's zone map: a shard is skipped when
	// no tuple instant can fall in the queried range, or when a static
	// dice has an exact distinct-coordinate set none of whose members
	// passes. Both checks are conservative — a skipped shard provably
	// emits nothing — so pruning is invisible in the result bits.
	skipShard := func(sh *factShard, lookup *rollupCache) bool {
		if debugDisableZonePruning {
			return false
		}
		z := sh.zoneMap(mt.nd)
		if !z.overlapsTime(rng) {
			return true
		}
		for di := range dices {
			dc := &dices[di]
			if !dc.static || !z.hasDistinct(dc.dimPos) {
				continue
			}
			any := false
			for _, id := range z.dims[dc.dimPos].distinct {
				// The instant is irrelevant for a static dice.
				if lookup.diceContains(di, dc.dimPos, id, dc.names, rng.Start) {
					any = true
					break
				}
			}
			if !any {
				return true
			}
		}
		return false
	}

	// The scan splits into two phases. Classification — range and dice
	// filters, rollup to the grouping levels, building each (tuple,
	// combination) cell key — is the expensive part and carries no
	// cross-tuple state, so it fans out across contiguous shard ranges
	// of the columnar table, one rollup cache per worker, skipping
	// whole shards their zone maps disqualify. The fold below replays
	// the emissions partitioned by cell, preserving global tuple order
	// within every cell.
	// cellInfo is the per-worker interned identity of one result cell:
	// built on the worker's first sight of the key, shared by every
	// later emission of the same cell, so an emission is two words. The
	// globally first emission of a cell (the one the fold creates the
	// row from) carries the groups resolved at that first sight.
	type cellInfo struct {
		hash      uint32
		timeKey   string
		timeOrder int64
		key       string
		groups    []string
		groupIDs  []MVID
	}
	type cellEmit struct {
		tuple int
		cell  *cellInfo
	}
	type scanStats struct {
		shardsPruned int
		factsPruned  int
		scanned      int
	}
	classify := func(ctx context.Context, shardLo, shardHi int, lookup *rollupCache) ([]cellEmit, scanStats, error) {
		var out []cellEmit
		var stats scanStats
		perAxis := make([][]*MemberVersion, len(axes))
		combo := make([]int, len(axes))
		nd := mt.nd
		hasDead := mt.dead > 0
		buckets := make(map[temporal.Instant]bucketRef, 64)
		interned := make(map[string]*cellInfo, 64)
		var keyBuf []byte
		steps := 0
		for si := shardLo; si < shardHi; si++ {
			sh := mt.shards[si]
			if sh.n == 0 {
				continue
			}
			if skipShard(sh, lookup) {
				stats.shardsPruned++
				stats.factsPruned += sh.n
				continue
			}
			base := si << shardShift
			stats.scanned += sh.n
			// One grow per shard at most: emissions are ~1 per passing
			// tuple, so reserving the shard's tuple count keeps the
			// append loop below out of growslice.
			if need := len(out) + sh.n; need > cap(out) {
				grown := make([]cellEmit, len(out), need)
				copy(grown, out)
				out = grown
			}
			for j := 0; j < sh.n; j++ {
				if steps%cancelCheckStride == 0 {
					if err := ctx.Err(); err != nil {
						return nil, stats, fmt.Errorf("core: query cancelled: %w", err)
					}
				}
				steps++
				if hasDead && sh.sources[j] == 0 {
					continue // tombstoned by a retraction
				}
				t := sh.times[j]
				if !rng.Contains(t) {
					continue
				}
				coords := sh.coords[j*nd : (j+1)*nd]
				pass := true
				for di := range dices {
					dc := &dices[di]
					if !lookup.diceContains(di, dc.dimPos, coords[dc.dimPos], dc.names, t) {
						pass = false
						break
					}
				}
				if !pass {
					continue
				}
				// Each axis may roll the fact up to several members
				// (multiple hierarchies); a fact contributes to every
				// combination.
				skip := false
				for ai, ax := range axes {
					ups := lookup.ancestorsAtLevel(ax.dimPos, coords[ax.dimPos], ax.level, t)
					if len(ups) == 0 {
						skip = true // non-covering hierarchy: no ancestor at the level
						break
					}
					perAxis[ai] = ups
				}
				if skip {
					continue
				}
				br, ok := buckets[t]
				if !ok {
					br.key, br.order = bucketOf(q.Grain, t)
					buckets[t] = br
				}
				for i := range combo {
					combo[i] = 0
				}
				for {
					keyBuf = append(keyBuf[:0], br.key...)
					keyBuf = append(keyBuf, '\x1e')
					for ai := range axes {
						if ai > 0 {
							keyBuf = append(keyBuf, '\x1f')
						}
						keyBuf = append(keyBuf, perAxis[ai][combo[ai]].DisplayName()...)
					}
					ci, ok := interned[string(keyBuf)] // no-alloc probe
					if !ok {
						key := string(keyBuf)
						groups := make([]string, len(axes))
						groupIDs := make([]MVID, len(axes))
						for ai := range axes {
							mv := perAxis[ai][combo[ai]]
							groups[ai] = mv.DisplayName()
							groupIDs[ai] = mv.ID
						}
						ci = &cellInfo{
							hash:      fnv32(key),
							timeKey:   br.key,
							timeOrder: br.order,
							key:       key,
							groups:    groups,
							groupIDs:  groupIDs,
						}
						interned[key] = ci
					}
					out = append(out, cellEmit{tuple: base + j, cell: ci})
					// Advance the combination counter.
					i := 0
					for ; i < len(combo); i++ {
						combo[i]++
						if combo[i] < len(perAxis[i]) {
							break
						}
						combo[i] = 0
					}
					if i == len(combo) {
						break
					}
				}
			}
		}
		return out, stats, nil
	}

	numShards := len(mt.shards)
	workers := s.materializeWorkers(mt.Len())
	if workers > numShards {
		workers = numShards
	}
	if workers < 1 {
		workers = 1
	}
	var emitChunks [][]cellEmit
	var total scanStats
	if workers <= 1 {
		emits, st, err := classify(ctx, 0, numShards, lookup)
		if err != nil {
			metQueryCancelled.Inc()
			return nil, err
		}
		total = st
		emitChunks = [][]cellEmit{emits}
	} else {
		emitChunks = make([][]cellEmit, workers)
		statsBy := make([]scanStats, workers)
		errs := make([]error, workers)
		chunk := (numShards + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, numShards)
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				emitChunks[w], statsBy[w], errs[w] = classify(ctx, lo, hi, newRollupCache(s, q.Mode))
			}(w, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				metQueryCancelled.Inc()
				return nil, err
			}
		}
		for _, st := range statsBy {
			total.shardsPruned += st.shardsPruned
			total.factsPruned += st.factsPruned
			total.scanned += st.scanned
		}
	}
	metShardsPruned.Add(int64(total.shardsPruned))
	metFactsPruned.Add(int64(total.factsPruned))
	metFactsScanned.Add(int64(total.scanned))

	// The fold — Accumulator.Add and ⊗cf per emission — is
	// order-dependent (float Sum is not associative): bit-identity
	// requires every cell to fold its emissions in global tuple order.
	// Order only matters *within* a cell, so the fold partitions by
	// cell — hash of the cell key modulo the fold worker count — and
	// each fold worker replays all chunks in chunk order, processing
	// only its own cells: the exact per-cell add sequence of a
	// sequential fold, bit-identical at any worker count. The final
	// sort is a total order over cells (equal sort keys imply the same
	// cell), so row order is independent of the partitioning too.
	type cellState struct {
		row  *Row
		accs []*Accumulator
		seen []bool
	}
	nm := mt.nm
	foldPartition := func(part, nparts int) []*Row {
		cells := make(map[string]*cellState, 64)
		order := make([]*cellState, 0, 64)
		for _, emits := range emitChunks {
			for i := range emits {
				e := &emits[i]
				ci := e.cell
				if nparts > 1 && ci.hash%uint32(nparts) != uint32(part) {
					continue
				}
				st, ok := cells[ci.key]
				if !ok {
					st = &cellState{
						row: &Row{
							TimeKey:   ci.timeKey,
							Groups:    ci.groups,
							GroupIDs:  ci.groupIDs,
							CFs:       make([]Confidence, len(mIdx)),
							timeOrder: ci.timeOrder,
						},
						accs: make([]*Accumulator, len(mIdx)),
						seen: make([]bool, len(mIdx)),
					}
					for k, mi := range mIdx {
						st.accs[k] = NewAccumulator(s.measures[mi].Agg)
					}
					cells[ci.key] = st
					order = append(order, st)
				}
				sh, j := mt.shardAt(e.tuple)
				for k, mi := range mIdx {
					st.accs[k].Add(sh.values[j*nm+mi])
					if !st.seen[k] {
						st.row.CFs[k] = sh.cfs[j*nm+mi]
						st.seen[k] = true
					} else {
						st.row.CFs[k] = s.alg.Combine(st.row.CFs[k], sh.cfs[j*nm+mi])
					}
				}
				st.row.N++
			}
		}
		rows := make([]*Row, len(order))
		for i, st := range order {
			st.row.Values = make([]float64, len(mIdx))
			for k := range mIdx {
				st.row.Values[k] = st.accs[k].Value()
			}
			rows[i] = st.row
		}
		return rows
	}

	res := &Result{MeasureNames: mNames, GroupNames: gNames, Mode: q.Mode, Dropped: mt.Dropped}
	if workers <= 1 {
		res.Rows = foldPartition(0, 1)
	} else {
		parts := make([][]*Row, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				parts[w] = foldPartition(w, workers)
			}(w)
		}
		wg.Wait()
		for _, p := range parts {
			res.Rows = append(res.Rows, p...)
		}
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		a, b := res.Rows[i], res.Rows[j]
		if a.timeOrder != b.timeOrder {
			return a.timeOrder < b.timeOrder
		}
		for k := range a.Groups {
			if a.Groups[k] != b.Groups[k] {
				return a.Groups[k] < b.Groups[k]
			}
		}
		return false
	})
	metQueryRows.Add(int64(len(res.Rows)))
	return res, nil
}

// fnv32 is FNV-1a over the cell key, used to partition cells across
// fold workers deterministically.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// debugDisableZonePruning turns zone-map shard skipping off. Test-only:
// the equivalence suites compute their reference results with pruning
// disabled. Must not be flipped while queries are in flight.
var debugDisableZonePruning bool

// ancKey memoizes ancestorsAtLevel per (member, level) inside one
// instant's sub-cache without rendering a string key per probe.
type ancKey struct {
	id    MVID
	level string
}

// diceKey memoizes a dice verdict per (member, resolved instant).
type diceKey struct {
	id MVID
	at temporal.Instant
}

// rollupCache resolves "ancestors of a leaf at a level" questions for a
// mode, caching per-instant level assignments.
type rollupCache struct {
	schema *Schema
	mode   Mode
	// diceMemo[diceIdx] caches pass/fail verdicts of one query filter:
	// whether a coordinate lies under any of the filter's named
	// members in the structure resolved at the given instant.
	diceMemo []map[diceKey]bool
}

func newRollupCache(s *Schema, m Mode) *rollupCache {
	return &rollupCache{schema: s, mode: m}
}

// diceContains is underAnyNamed memoized per query filter: the walk
// verdict for a coordinate depends only on the resolved (dimension,
// instant) pair, which repeats for every tuple of a month (tcm) or the
// whole table (version modes).
func (rc *rollupCache) diceContains(diceIdx, dimPos int, id MVID, names map[string]bool, t temporal.Instant) bool {
	d, at := rc.dimAndInstant(dimPos, t)
	for len(rc.diceMemo) <= diceIdx {
		rc.diceMemo = append(rc.diceMemo, nil)
	}
	m := rc.diceMemo[diceIdx]
	if m == nil {
		m = make(map[diceKey]bool)
		rc.diceMemo[diceIdx] = m
	}
	k := diceKey{id: id, at: at}
	if v, ok := m[k]; ok {
		return v
	}
	v := underAnyNamedIn(d, at, id, names)
	m[k] = v
	return v
}

// dimAndInstant picks the graph to roll up in: the structure version's
// restricted dimension (static) in a version mode, D(t) in tcm.
func (rc *rollupCache) dimAndInstant(dimPos int, t temporal.Instant) (*Dimension, temporal.Instant) {
	d := rc.schema.dims[dimPos]
	if rc.mode.Kind == VersionKind && rc.mode.Version != nil {
		rd := rc.mode.Version.Dimension(d.ID)
		if rd != nil {
			return rd, rc.mode.Version.Valid.Start
		}
	}
	return d, t
}

// ancestorsAtLevel returns the member versions at the named level that
// are reachable upward from id (including id itself when it sits at the
// level). It delegates straight to the dimension's shared derived
// cache — which survives clone swaps — so repeated queries over the
// same dimension value pay the rollup walk only once process-wide.
func (rc *rollupCache) ancestorsAtLevel(dimPos int, id MVID, level string, t temporal.Instant) []*MemberVersion {
	d, at := rc.dimAndInstant(dimPos, t)
	return d.ancestorsAtLevel(id, level, at)
}

// underAnyNamed reports whether id or any of its ancestors in the
// mode's structure carries one of the display names.
func (rc *rollupCache) underAnyNamed(dimPos int, id MVID, names map[string]bool, t temporal.Instant) bool {
	d, at := rc.dimAndInstant(dimPos, t)
	return underAnyNamedIn(d, at, id, names)
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
