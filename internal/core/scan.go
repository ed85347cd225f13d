package core

import (
	"context"
	"fmt"
	"slices"

	"mvolap/internal/temporal"
)

// maxSlotWindow bounds the instant-indexed slot array of a scan;
// instants further than this from the window's start go through a map.
const maxSlotWindow = 1 << 12

// scanSlot is what a scan knows about one fact instant: its time bucket
// and, per axis and per dice, the view of the structure the instant's
// tuples roll up in. Views of static dimensions are shared by every
// slot.
type scanSlot struct {
	bucket int32
	axes   []*axisView
	dices  []*diceView
}

// axisView is a scan's reading of one rollup table: groups runs
// parallel to table.anc and holds the scan's group ordinal of each
// ancestor's display name, -1 until the ancestor's set is first used.
type axisView struct {
	table  *rollupTable
	groups []int32
}

// diceView holds the verdicts of one filter in one D(at), by member
// ordinal: 0 not asked yet, 1 under a named member, 2 not.
type diceView struct {
	d        *Dimension
	at       temporal.Instant
	names    map[string]bool
	verdicts []uint8
}

func newDiceView(d *Dimension, at temporal.Instant, names map[string]bool) *diceView {
	return &diceView{d: d, at: at, names: names, verdicts: make([]uint8, len(d.order))}
}

// contains reports whether the member version of v.d with the given
// ordinal, or one of its ancestors in D(at), carries one of the names.
func (v *diceView) contains(ord int32) bool {
	verdict := v.verdicts[ord]
	if verdict == 0 {
		verdict = 2
		if underAnyNamedIn(v.d, v.at, v.d.order[ord], v.names) {
			verdict = 1
		}
		v.verdicts[ord] = verdict
	}
	return verdict == 1
}

// pairIndex numbers (prefix, next) pairs of small dense integers in
// first-sight order, so that a new pair's ordinal is the count of pairs
// before it. A chain of them — (0, bucket), then (that, group) per axis —
// turns a bucket ordinal and one group ordinal per axis into a dense
// cell ordinal without hashing anything.
type pairIndex struct {
	rows [][]int32 // rows[prefix][next] = ordinal + 1, 0 when unseen
	n    int32
}

func (x *pairIndex) get(prefix, next int32) int32 {
	if int(prefix) >= len(x.rows) {
		x.rows = append(x.rows, make([][]int32, int(prefix)+1-len(x.rows))...)
	}
	row := x.rows[prefix]
	if int(next) >= len(row) {
		row = append(row, make([]int32, max(int(next)+1, 2*len(row))-len(row))...)
		x.rows[prefix] = row
	}
	if row[next] == 0 {
		x.n++
		row[next] = x.n
	}
	return row[next] - 1
}

// emission says "this tuple folds into this cell": one per (tuple,
// ancestor combination). A tuple ≥ 0 is a tuple of the shard being
// scanned, read from its columns; a negative one is ^row of the
// scanner's presented values (xvals, xcfs), or of the merge map's. It
// holds no pointer.
type emission struct {
	tuple, cell int32
}

// scanner walks the live shards of a mapped table in tuple order, on
// the calling goroutine. Per shard it classifies every tuple into the
// cells it emits to, then folds those emissions into their cells, so
// every cell folds its emissions in tuple order. Everything it interns
// — buckets, groups, cells — is numbered in first-sight order.
type scanner struct {
	p    *scanPlan
	mt   *MappedTable
	live []bool

	// In a version mode, pres presents the tuples that do not pass
	// through their resolution tables as they are. Their emissions carry
	// their values in xvals and xcfs, one row per emission, for the shard
	// being scanned; emissions on a target that can merge wait in merged
	// until every shard is scanned.
	pres   *presenter
	xvals  []float64
	xcfs   []Confidence
	xrows  int32
	merged *mergeMap

	// slotAt maps instant t0+i to slots[slotAt[i]-1] (0: not met yet);
	// slotFar does the same for instants outside that window.
	t0      temporal.Instant
	slotAt  []int32
	slotFar map[temporal.Instant]int32
	slots   []scanSlot
	// Views of static dimensions, per axis and per dice (nil otherwise).
	staticAxes  []*axisView
	staticDices []*diceView

	buckets   []bucketRef
	bucketOrd map[int64]int32 // by bucketRef.order
	// Per axis: group ordinals by display name, and the group ordinal + 1
	// of the members met as ancestors, by member ordinal (0: not met
	// yet).
	groupOrd    []map[string]int32
	memberGroup [][]int32

	// pairs is the cell chain: pairs[0] numbers the buckets that emit,
	// pairs[ai+1] extends a cell prefix by axis ai's group. A cell's
	// columns follow: its bucket; one entry per axis in cellFirst, the
	// ancestors of the emission that created it (a row takes its
	// GroupIDs from its first emission); one accumulator and one
	// combined confidence per selected measure; its emission count.
	pairs      []pairIndex
	cellBucket []int32
	cellFirst  []*MemberVersion
	accs       []Accumulator
	cfs        []Confidence
	cellN      []int32

	// The coordinate position each dice and each axis reads; per axis,
	// the bounds in table.anc of a tuple's ancestor set and the odometer
	// over their combinations.
	dicePos, axisPos []int
	lo, hi, idx      []int32

	scanned, emitted int
}

func newScanner(p *scanPlan, mt *MappedTable, live []bool, t0 temporal.Instant, window int) *scanner {
	na := len(p.axes)
	sc := &scanner{
		p: p, mt: mt, live: live,
		t0:          t0,
		slotAt:      make([]int32, window),
		staticAxes:  make([]*axisView, na),
		staticDices: make([]*diceView, len(p.dices)),
		bucketOrd:   make(map[int64]int32),
		groupOrd:    make([]map[string]int32, na),
		memberGroup: make([][]int32, na),
		pairs:       make([]pairIndex, na+1),
		dicePos:     make([]int, len(p.dices)),
		axisPos:     make([]int, na),
		lo:          make([]int32, na),
		hi:          make([]int32, na),
		idx:         make([]int32, na),
	}
	for di, dc := range p.dices {
		sc.dicePos[di] = p.dims[dc.dim].pos
	}
	for ai, ax := range p.axes {
		dim := &p.dims[ax.dim]
		sc.axisPos[ai] = dim.pos
		sc.groupOrd[ai] = make(map[string]int32)
		sc.memberGroup[ai] = make([]int32, len(dim.d.order))
		if dim.static {
			sc.staticAxes[ai] = newAxisView(dim.d.rollupTableAt(ax.level, dim.at))
		}
	}
	for di, dc := range p.dices {
		if dim := &p.dims[dc.dim]; dim.static {
			sc.staticDices[di] = newDiceView(dim.d, dim.at, dc.names)
		}
	}
	if p.res != nil {
		s := p.s
		sc.pres = newPresenter(p.res, p.pres, mt.nm, s.alg, s.mappingGraph().identity)
		sc.merged = newMergeMap(mt.nd, s.measures, s.alg)
	}
	return sc
}

// slot returns the slot of instant t, building it on first sight: the
// one place a scan renders a time bucket or fetches a rollup table.
func (sc *scanner) slot(t temporal.Instant) *scanSlot {
	off := uint64(t - sc.t0)
	near := off < uint64(len(sc.slotAt))
	if near {
		if i := sc.slotAt[off]; i != 0 {
			return &sc.slots[i-1]
		}
	} else if i, ok := sc.slotFar[t]; ok {
		return &sc.slots[i-1]
	}

	p := sc.p
	var br bucketRef
	br.key, br.order = bucketOf(p.grain, t)
	sl := scanSlot{
		bucket: sc.internBucket(br),
		axes:   make([]*axisView, len(p.axes)),
		dices:  make([]*diceView, len(p.dices)),
	}
	for ai, ax := range p.axes {
		if sl.axes[ai] = sc.staticAxes[ai]; sl.axes[ai] == nil {
			sl.axes[ai] = newAxisView(p.dims[ax.dim].d.rollupTableAt(ax.level, t))
		}
	}
	for di, dc := range p.dices {
		if sl.dices[di] = sc.staticDices[di]; sl.dices[di] == nil {
			sl.dices[di] = newDiceView(p.dims[dc.dim].d, t, dc.names)
		}
	}
	sc.slots = append(sc.slots, sl)
	i := int32(len(sc.slots))
	if near {
		sc.slotAt[off] = i
	} else {
		if sc.slotFar == nil {
			sc.slotFar = make(map[temporal.Instant]int32)
		}
		sc.slotFar[t] = i
	}
	return &sc.slots[i-1]
}

func newAxisView(tab *rollupTable) *axisView {
	v := &axisView{table: tab, groups: make([]int32, len(tab.anc))}
	for i := range v.groups {
		v.groups[i] = -1
	}
	return v
}

func (sc *scanner) internBucket(br bucketRef) int32 {
	b, ok := sc.bucketOrd[br.order]
	if !ok {
		b = int32(len(sc.buckets))
		sc.bucketOrd[br.order] = b
		sc.buckets = append(sc.buckets, br)
	}
	return b
}

// internSet gives the ancestors anc[lo:hi] of axis ai their group
// ordinals, once per (scan, set). A member keeps its display name, so
// the name is probed once per (scan, member) and read back by the
// member's ordinal at every other instant it is an ancestor at.
func (sc *scanner) internSet(ai int, v *axisView, lo, hi int32) {
	byMember, byName := sc.memberGroup[ai], sc.groupOrd[ai]
	for x := lo; x < hi; x++ {
		mv := v.table.anc[x]
		if byMember[mv.ord] == 0 {
			name := mv.DisplayName()
			g, ok := byName[name]
			if !ok {
				g = int32(len(byName))
				byName[name] = g
			}
			byMember[mv.ord] = g + 1
		}
		v.groups[x] = byMember[mv.ord] - 1
	}
}

// newCell records the cell the current emission creates: idx[ai] is the
// position in axis ai's table.anc of the ancestor the combination uses.
func (sc *scanner) newCell(sl *scanSlot, idx []int32) {
	if n := len(sc.cellN); n == cap(sc.cellN) {
		// Double the columns: append grows a long slice by a quarter at a
		// time, and a drill down meets tens of thousands of cells.
		n = max(n, 16)
		nq := len(sc.p.mIdx)
		sc.cellFirst = slices.Grow(sc.cellFirst, n*len(sl.axes))
		sc.cellBucket = slices.Grow(sc.cellBucket, n)
		sc.accs = slices.Grow(sc.accs, n*nq)
		sc.cfs = slices.Grow(sc.cfs, n*nq)
		sc.cellN = slices.Grow(sc.cellN, n)
	}
	for ai, v := range sl.axes {
		sc.cellFirst = append(sc.cellFirst, v.table.anc[idx[ai]])
	}
	sc.cellBucket = append(sc.cellBucket, sl.bucket)
	for _, mi := range sc.p.mIdx {
		sc.accs = append(sc.accs, emptyAccumulator(sc.p.s.measures[mi].Agg))
	}
	sc.cfs = append(sc.cfs, make([]Confidence, len(sc.p.mIdx))...)
	sc.cellN = append(sc.cellN, 0)
}

// scan classifies and folds the live shards and returns the cells as
// rows, in first-sight order. Per tuple it reads arrays only — the
// slot of the instant, in a version mode the resolution of each
// coordinate, the dice verdict and the rollup table by the member
// ordinal the tuple stores, the cell by bucket and group ordinals; it
// probes no map, takes no lock and allocates only when it meets an
// instant, an ancestor set or a cell for the first time.
//
// A shard's emissions are collected, then folded, one shard at a time.
// That is the fold order of folding each emission where it is
// classified; the interleaved form measured about 10 % slower on one
// core (BenchmarkShardedScan's rollup leg). The buffer holds one
// shard's emissions and is reused for every shard.
//
// In a version mode a tuple whose every coordinate passes through its
// resolution table is read as it is stored. Any other tuple is
// presented (presenter) and each of its emissions classified on its
// target coordinates, except that an emission on a target that can
// merge (Definition 11's f' is a function: presentations landing on one
// coordinate and instant are one tuple) goes to the merge map; the
// merged tuples are classified and folded last, in first-sight order.
func (sc *scanner) scan(ctx context.Context) ([]*Row, error) {
	p, mt := sc.p, sc.mt
	nd := mt.nd
	hasDead := mt.dead > 0
	rng := p.rng
	// In a version mode, which coordinates pass as stored, per dimension.
	var passes [][]bool
	if p.pres != nil {
		passes = p.pres.pass
	}
	dicePos, axisPos := sc.dicePos, sc.axisPos
	lo, hi, idx := sc.lo, sc.hi, sc.idx
	// Most tuples emit once; a multiple hierarchy grows the buffer by
	// append.
	emits := make([]emission, 0, MappedShardSize)
	steps := 0
	// Fact instants repeat in runs; sl is the slot of lastT.
	var sl *scanSlot
	var lastT temporal.Instant
	for si, sh := range mt.shards {
		if !sc.live[si] {
			continue
		}
		sc.scanned += sh.n
		emits, sc.xvals, sc.xcfs, sc.xrows = emits[:0], sc.xvals[:0], sc.xcfs[:0], 0
	tuples:
		for j := 0; j < sh.n; j++ {
			if steps%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("core: query cancelled: %w", err)
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
			if sl == nil || t != lastT {
				sl, lastT = sc.slot(t), t
			}
			coords := sh.coords[j*nd : (j+1)*nd]
			for i, pass := range passes {
				if !pass[coords[i]] {
					emits = sc.present(emits, sl, t, coords, sh.values[j*mt.nm:(j+1)*mt.nm])
					continue tuples
				}
			}
			// The tuple as stored. This is classify written out in the
			// loop, the scan's hot path: as a call per tuple, the call and
			// its field loads took about a tenth of the scan's profile.
			for di := range p.dices {
				if !sl.dices[di].contains(coords[dicePos[di]]) {
					continue tuples
				}
			}
			// Each axis may roll the fact up to several members (multiple
			// hierarchies); a fact contributes to every combination.
			for ai := range p.axes {
				v := sl.axes[ai]
				lo[ai], hi[ai] = v.table.setOf(coords[axisPos[ai]])
				if lo[ai] == hi[ai] {
					continue tuples // non-covering hierarchy: no ancestor at the level
				}
				if v.groups[lo[ai]] < 0 {
					sc.internSet(ai, v, lo[ai], hi[ai])
				}
			}
			copy(idx, lo)
			for {
				cell := sc.pairs[0].get(0, sl.bucket)
				for ai, v := range sl.axes {
					cell = sc.pairs[ai+1].get(cell, v.groups[idx[ai]])
				}
				if int(cell) == len(sc.cellN) {
					sc.newCell(sl, idx)
				}
				emits = append(emits, emission{tuple: int32(j), cell: cell})
				// Advance the combination odometer, first axis fastest.
				ai := 0
				for ; ai < len(idx); ai++ {
					if idx[ai]++; idx[ai] < hi[ai] {
						break
					}
					idx[ai] = lo[ai]
				}
				if ai == len(idx) {
					break
				}
			}
		}
		sc.fold(sh, emits)
	}
	if m := sc.merged; m != nil {
		emits = emits[:0]
		for x, t := range m.times {
			emits = sc.classify(emits, sc.slot(t), m.coords[x*nd:(x+1)*nd], ^int32(x))
		}
		sc.foldRows(m.values, m.cfs, emits)
		sc.merged = nil
		m.release()
	}
	return sc.rows(), nil
}

// present appends the emissions of one source tuple at instant t that
// does not pass through the mode's resolution tables.
func (sc *scanner) present(emits []emission, sl *scanSlot, t temporal.Instant, src []int32, values []float64) []emission {
	pr := sc.pres
	if !pr.start(src, values) {
		return emits // dropped: countDropped counts it
	}
	for pr.next() {
		switch {
		case !sc.diced(sl, pr.coords):
		case pr.merges:
			sc.merged.add(pr.coords, t, pr.values, pr.cfs)
		default:
			sc.xvals = append(sc.xvals, pr.values...)
			sc.xcfs = append(sc.xcfs, pr.cfs...)
			emits = sc.classify(emits, sl, pr.coords, ^sc.xrows)
			sc.xrows++
		}
	}
	return emits
}

// diced reports whether a tuple with the given coordinates passes every
// dice of the slot.
func (sc *scanner) diced(sl *scanSlot, coords []int32) bool {
	for di, pos := range sc.dicePos {
		if !sl.dices[di].contains(coords[pos]) {
			return false
		}
	}
	return true
}

// classify appends the emissions of one tuple that passed the dices,
// with the given coordinates in slot sl, to emits: none when it
// misses a grouping level (non-covering hierarchy), one per combination
// of its ancestors at the grouping levels otherwise — each axis may roll
// the tuple up to several members (multiple hierarchies). The scan's
// loop does the same for the tuples it reads as stored.
func (sc *scanner) classify(emits []emission, sl *scanSlot, coords []int32, tuple int32) []emission {
	lo, hi, idx := sc.lo, sc.hi, sc.idx
	for ai, pos := range sc.axisPos {
		v := sl.axes[ai]
		lo[ai], hi[ai] = v.table.setOf(coords[pos])
		if lo[ai] == hi[ai] {
			return emits
		}
		if v.groups[lo[ai]] < 0 {
			sc.internSet(ai, v, lo[ai], hi[ai])
		}
	}
	copy(idx, lo)
	for {
		cell := sc.pairs[0].get(0, sl.bucket)
		for ai, v := range sl.axes {
			cell = sc.pairs[ai+1].get(cell, v.groups[idx[ai]])
		}
		if int(cell) == len(sc.cellN) {
			sc.newCell(sl, idx)
		}
		emits = append(emits, emission{tuple: tuple, cell: cell})
		ai := 0
		for ; ai < len(idx); ai++ {
			if idx[ai]++; idx[ai] < hi[ai] {
				break
			}
			idx[ai] = lo[ai]
		}
		if ai == len(idx) {
			return emits
		}
	}
}

// fold adds one shard's emissions to their cells, in tuple order:
// Definition 12's ⊕ per measure and ⊗cf per confidence factor. Runs of
// emissions of stored tuples fold from the shard's columns, runs of
// presented ones from the scanner's.
func (sc *scanner) fold(sh *factShard, emits []emission) {
	if sc.xrows == 0 {
		sc.foldRows(sh.values, sh.cfs, emits)
		return
	}
	for len(emits) > 0 {
		stored, n := emits[0].tuple >= 0, 1
		for n < len(emits) && (emits[n].tuple >= 0) == stored {
			n++
		}
		if stored {
			sc.foldRows(sh.values, sh.cfs, emits[:n])
		} else {
			sc.foldRows(sc.xvals, sc.xcfs, emits[:n])
		}
		emits = emits[n:]
	}
}

// foldRows folds emissions whose tuples are all rows of the given value
// and confidence columns, a row either as is or complemented (^row).
func (sc *scanner) foldRows(values []float64, tcfs []Confidence, emits []emission) {
	nm, nq, alg := sc.mt.nm, len(sc.p.mIdx), sc.p.s.alg
	for _, e := range emits {
		j, c := int(e.tuple^e.tuple>>31), int(e.cell)
		vals, vcfs := values[j*nm:(j+1)*nm], tcfs[j*nm:(j+1)*nm]
		accs, cfs := sc.accs[c*nq:(c+1)*nq], sc.cfs[c*nq:(c+1)*nq]
		first := sc.cellN[c] == 0
		for k, mi := range sc.p.mIdx {
			accs[k].Add(vals[mi])
			if first {
				cfs[k] = vcfs[mi]
			} else {
				cfs[k] = alg.Combine(cfs[k], vcfs[mi])
			}
		}
		sc.cellN[c]++
	}
	sc.emitted += len(emits)
}

// rows renders the cells as result rows, in cell order.
func (sc *scanner) rows() []*Row {
	n, nq, na := len(sc.cellN), len(sc.p.mIdx), len(sc.p.axes)
	rows := make([]Row, n)
	out := make([]*Row, n)
	values := make([]float64, n*nq)
	groups := make([]string, n*na)
	groupIDs := make([]MVID, n*na)
	for i := range rows {
		br := sc.buckets[sc.cellBucket[i]]
		r := &rows[i]
		r.TimeKey, r.timeOrder = br.key, br.order
		r.Groups = groups[i*na : (i+1)*na : (i+1)*na]
		r.GroupIDs = groupIDs[i*na : (i+1)*na : (i+1)*na]
		for ai, mv := range sc.cellFirst[i*na : (i+1)*na] {
			r.Groups[ai] = mv.DisplayName()
			r.GroupIDs[ai] = mv.ID
		}
		r.Values = values[i*nq : (i+1)*nq : (i+1)*nq]
		for k := range r.Values {
			r.Values[k] = sc.accs[i*nq+k].Value()
		}
		r.CFs = sc.cfs[i*nq : (i+1)*nq : (i+1)*nq]
		r.N = int(sc.cellN[i])
		out[i] = r
	}
	return out
}
