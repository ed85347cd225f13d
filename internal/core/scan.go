package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"mvolap/internal/temporal"
)

// maxSlotWindow bounds the instant-indexed slot array of a scan;
// instants further than this from the window's start go through a map.
const maxSlotWindow = 1 << 12

// scanSlot is what a scan knows about one fact instant: its time bucket,
// the bucket's prefix in the cell chain (pairs[0]; unset for a grand
// total, where the bucket is the cell) and, per axis and per dice, the
// view of the structure the instant's tuples roll up in, as offsets of
// the scanner's slabs: the slot's axis views are axisSlab[axes:axes+na]
// and its dice columns diceSlab[dices:dices+len(dices)]. Views and
// columns of static dimensions are shared by every slot, an axis view by
// every slot whose instant reads its rollup table and a dice column by
// every slot whose instant lies in its chain entry; consecutive slots
// reading the same axis views share one window, so two slots with one
// axes offset read the same views.
type scanSlot struct {
	bucket, prefix int32
	axes, dices    int32
}

// axisView is a scan's reading of one rollup table: groups runs
// parallel to table.anc and holds the scan's group ordinal of each
// ancestor's display name, -1 until the ancestor's set is first used.
type axisView struct {
	table  *rollupTable
	groups []int32
}

// pairIndex numbers (prefix, next) pairs of small dense integers in
// first-sight order, so that a new pair's ordinal is the count of pairs
// before it. A chain of them — (0, bucket), then (that, group) per axis —
// turns a bucket ordinal and one group ordinal per axis into a dense
// cell ordinal without hashing anything. A row that grows moves to a
// window twice its length, or as long as next needs, cut from a slab:
// the rows of a drill down, one per bucket, allocate a few slabs
// between them rather than one array per doubling each. Slabs double up
// to maxSlab entries, so the room a scan leaves unused is at most one
// slab's tail.
const maxSlab = 1 << 14

type pairIndex struct {
	rows    [][]int32 // rows[prefix][next] = ordinal + 1, 0 when unseen
	slab    []int32   // what is left of the last slab
	slabLen int
	n       int32
}

func (x *pairIndex) get(prefix, next int32) int32 {
	if int(prefix) >= len(x.rows) {
		x.rows = append(x.rows, make([][]int32, int(prefix)+1-len(x.rows))...)
	}
	row := x.rows[prefix]
	if int(next) >= len(row) {
		n := max(int(next)+1, 2*len(row))
		if n > len(x.slab) {
			x.slabLen = max(n, min(2*x.slabLen, maxSlab), 64)
			x.slab = make([]int32, x.slabLen)
		}
		grown := x.slab[:n:n]
		x.slab = x.slab[n:]
		copy(grown, row)
		row = grown
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

// scanner walks the live shards of the fact table in tuple order, on
// the calling goroutine. Per shard it classifies every tuple into the
// cells it emits to, then folds those emissions into their cells, so
// every cell folds its emissions in tuple order. Everything it interns
// — buckets, groups, cells — is numbered in first-sight order; order
// ranks them for the result.
type scanner struct {
	p    *scanPlan
	ft   *FactTable
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
	// The slabs the slots' axis views and dice columns are windows of.
	axisSlab []*axisView
	diceSlab [][]bool
	// Views of static dimensions, per axis (nil otherwise); per axis of a
	// time-dependent dimension, its views by rollup table, and per dice of
	// one, its columns by chain entry.
	staticAxes []*axisView
	tableViews []map[*rollupTable]*axisView
	entryDices []map[*entryTables][]bool

	buckets   []bucketRef
	bucketOrd map[int64]int32 // by bucketRef.order
	// Per axis: group ordinals by display name and display names by
	// group ordinal, and the group ordinal + 1 of the members met as
	// ancestors, by member ordinal (0: not met yet).
	groupOrd    []map[string]int32
	groupNames  [][]string
	memberGroup [][]int32

	// pairs is the cell chain: pairs[0] numbers the buckets that emit,
	// pairs[ai+1] extends a cell prefix by axis ai's group. The cells'
	// columns follow, in chunks (cellChunk); cells counts them.
	pairs  []pairIndex
	chunks []cellChunk
	cells  int32
	// minMax says a selected measure is a Min or a Max.
	minMax bool
	// byChunk is fold's scratch for a shard's emissions ordered by chunk,
	// and chunkEnds the end of each chunk's run in it.
	byChunk   []emission
	chunkEnds []int

	// The coordinate position each dice and each axis reads; per axis,
	// the bounds in table.anc of a tuple's ancestor set and the odometer
	// over their combinations.
	dicePos, axisPos []int
	lo, hi, idx      []int32

	// comb is ⊗cf tabulated over the four factors (Definition 6: a
	// function of its two operands), comb[a][b] = alg.Combine(a, b).
	comb [numConfidence][numConfidence]Confidence
	// skipSD says a stored tuple's ⊗cf step is the identity. A stored
	// tuple folds sd into every factor (Definition 11: f'|tcm = f ×
	// {sd}ᵐ); when sd is a right identity of the table (x ⊗cf sd = x, as
	// in Example 5 and the quantitative algebra) and every cell's factor
	// is in the table, that step changes nothing, and a cell's
	// confidence column, which starts at sd, already holds what its
	// first tuple would put there. It is cleared for good when a
	// presented factor outside the table reaches a cell.
	skipSD bool

	scanned, emitted int
}

func newScanner(p *scanPlan, ft *FactTable, live []bool, t0 temporal.Instant, window int) *scanner {
	na := len(p.axes)
	sc := &scanner{
		p: p, ft: ft, live: live,
		t0:          t0,
		slotAt:      make([]int32, window),
		staticAxes:  make([]*axisView, na),
		tableViews:  make([]map[*rollupTable]*axisView, na),
		entryDices:  make([]map[*entryTables][]bool, len(p.dices)),
		bucketOrd:   make(map[int64]int32),
		groupOrd:    make([]map[string]int32, na),
		groupNames:  make([][]string, na),
		memberGroup: make([][]int32, na),
		pairs:       make([]pairIndex, na+1),
		skipSD:      true,
	}
	nd := len(p.dices)
	pos, odo := make([]int, nd+na), make([]int32, 3*na)
	sc.dicePos, sc.axisPos = pos[:nd:nd], pos[nd:]
	sc.lo, sc.hi, sc.idx = odo[:na:na], odo[na:2*na:2*na], odo[2*na:]
	for di, dc := range p.dices {
		sc.dicePos[di] = p.dims[dc.dim].pos
		if dc.in == nil {
			sc.entryDices[di] = make(map[*entryTables][]bool)
		}
	}
	for _, mi := range p.mIdx {
		agg := p.s.measures[mi].Agg
		sc.minMax = sc.minMax || agg == Min || agg == Max
	}
	for a := range sc.comb {
		for b := range sc.comb[a] {
			sc.comb[a][b] = p.s.alg.Combine(Confidence(a), Confidence(b))
		}
		sc.skipSD = sc.skipSD && sc.comb[a][SourceData] == Confidence(a)
	}
	for ai, ax := range p.axes {
		dim := &p.dims[ax.dim]
		sc.axisPos[ai] = dim.pos
		sc.memberGroup[ai] = make([]int32, len(dim.d.order))
		if dim.static {
			sc.staticAxes[ai] = sc.newAxisView(ai, dim.d.rollupTableAt(ax.level, dim.at))
		} else {
			sc.tableViews[ai] = make(map[*rollupTable]*axisView)
		}
	}
	if p.res != nil {
		s := p.s
		sc.pres = newPresenter(p.res, p.pres, ft.nm, s.alg, s.mappingGraph().identity)
		sc.merged = newMergeMap(ft.nd, s.measures, s.alg)
	}
	return sc
}

// slot returns the index + 1 in sc.slots of the slot of instant t,
// building it on first sight: the one place a scan renders a time
// bucket or fetches a rollup table. Instants of one structure read one
// rollup table, and share its view: a set's groups are interned once
// per table, not once per instant.
func (sc *scanner) slot(t temporal.Instant) int32 {
	off := uint64(t - sc.t0)
	near := off < uint64(len(sc.slotAt))
	if near {
		if i := sc.slotAt[off]; i != 0 {
			return i
		}
	} else if i, ok := sc.slotFar[t]; ok {
		return i
	}

	p := sc.p
	sl := scanSlot{bucket: sc.internBucket(t), axes: int32(len(sc.axisSlab)), dices: int32(len(sc.diceSlab))}
	if len(p.axes) > 0 {
		sl.prefix = sc.pairs[0].get(0, sl.bucket)
	}
	for ai, ax := range p.axes {
		v := sc.staticAxes[ai]
		if v == nil {
			tab := p.dims[ax.dim].d.rollupTableAt(ax.level, t)
			if v = sc.tableViews[ai][tab]; v == nil {
				v = sc.newAxisView(ai, tab)
				sc.tableViews[ai][tab] = v
			}
		}
		sc.axisSlab = append(sc.axisSlab, v)
	}
	if n := len(sc.slots); n > 0 && slices.Equal(sc.axesOf(&sc.slots[n-1]), sc.axesOf(&sl)) {
		sc.axisSlab = sc.axisSlab[:sl.axes]
		sl.axes = sc.slots[n-1].axes
	}
	for di := range p.dices {
		sc.diceSlab = append(sc.diceSlab, sc.diceAt(di, t))
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
	return i
}

// axesOf returns the axis views of slot sl, one per axis.
func (sc *scanner) axesOf(sl *scanSlot) []*axisView {
	return sc.axisSlab[sl.axes : int(sl.axes)+len(sc.p.axes)]
}

// dicesOf returns the dice columns of slot sl, one per dice.
func (sc *scanner) dicesOf(sl *scanSlot) [][]bool {
	return sc.diceSlab[sl.dices : int(sl.dices)+len(sc.p.dices)]
}

// diceAt returns dice di's membership column at instant t: the plan's
// on a static dimension; otherwise the one of the chain entry holding
// t, built on first sight (D is constant over an entry, Definition 9),
// and nil, passing nothing, where the dimension holds nothing.
func (sc *scanner) diceAt(di int, t temporal.Instant) []bool {
	dc := &sc.p.dices[di]
	if dc.in != nil {
		return dc.in
	}
	d := sc.p.dims[dc.dim].d
	entry := entryAt(d.chain(), t)
	if entry == nil {
		return nil
	}
	in, ok := sc.entryDices[di][entry.tables]
	if !ok {
		in = d.under(t, dc.root)
		sc.entryDices[di][entry.tables] = in
	}
	return in
}

// axisRead is what the scan's loop reads of one axis's view: its
// rollup table's up column and its groups.
type axisRead struct {
	up, groups []int32
}

// newAxisView returns a view of axis ai's rollup table tab. The axis's
// first view sizes its group tables by the ancestors tab lists, the
// groups of a single hierarchy.
func (sc *scanner) newAxisView(ai int, tab *rollupTable) *axisView {
	if sc.groupOrd[ai] == nil {
		sc.groupOrd[ai] = make(map[string]int32, len(tab.anc))
		sc.groupNames[ai] = make([]string, 0, len(tab.anc))
	}
	v := &axisView{table: tab, groups: make([]int32, len(tab.anc))}
	for i := range v.groups {
		v.groups[i] = -1
	}
	return v
}

// internBucket returns the ordinal of the time bucket of t, rendering
// the bucket's key when it is first met.
func (sc *scanner) internBucket(t temporal.Instant) int32 {
	order := bucketOrder(sc.p.grain, t)
	b, ok := sc.bucketOrd[order]
	if !ok {
		b = int32(len(sc.buckets))
		sc.bucketOrd[order] = b
		sc.buckets = append(sc.buckets, bucketRef{key: bucketKey(sc.p.grain, t), order: order})
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
				sc.groupNames[ai] = append(sc.groupNames[ai], name)
			}
			byMember[mv.ord] = g + 1
		}
		v.groups[x] = byMember[mv.ord] - 1
	}
}

// cellChunkShift sets the cells a chunk of cell columns holds,
// 1<<cellChunkShift. The first chunk grows from 16 cells, fourfold, up
// to that size; past it a scan that meets more cells adds chunks, so
// the columns of a drill down are copied only while they are small,
// and only the last chunk has room to spare.
const (
	cellChunkShift = 12
	cellChunkMask  = 1<<cellChunkShift - 1
)

// cellChunk holds the columns of consecutive cells, indexed by a cell's
// offset in its chunk: its bucket; one entry per axis in first, the
// member ordinals of the ancestors of the emission that created it (a
// row takes its GroupIDs from its first emission); per selected
// measure, Definition 12's ⊕ as typed parts — the sum and the count of
// the non-NaN values folded, and their least and greatest when a
// selected measure is a Min or a Max (mins and maxs are nil
// otherwise) — and the combined confidence; its emission count. The
// int32 columns are windows of one block, the float64 ones of another.
type cellChunk struct {
	first, bucket, counts, n []int32
	sums, mins, maxs         []float64
	cfs                      []Confidence
}

// newChunk returns a chunk with room for k cells, holding a copy of
// the used columns of old, whose cells it continues (nil for none).
func (sc *scanner) newChunk(k int, old *cellChunk) cellChunk {
	na, nq := len(sc.p.axes), len(sc.p.mIdx)
	nf := 1 // sums, and mins and maxs beside them for a Min or a Max
	if sc.minMax {
		nf = 3
	}
	ints, floats := make([]int32, k*(na+2+nq)), make([]float64, k*nq*nf)
	ch := cellChunk{cfs: make([]Confidence, k*nq)}
	ch.first, ints = ints[:k*na:k*na], ints[k*na:]
	ch.bucket, ints = ints[:k:k], ints[k:]
	ch.n, ch.counts = ints[:k:k], ints[k:]
	ch.sums, floats = floats[:k*nq:k*nq], floats[k*nq:]
	if sc.minMax {
		ch.mins, ch.maxs = floats[:k*nq:k*nq], floats[k*nq:]
		for i := range ch.mins {
			ch.mins[i], ch.maxs[i] = math.Inf(1), math.Inf(-1)
		}
	}
	if old != nil {
		copy(ch.first, old.first)
		copy(ch.bucket, old.bucket)
		copy(ch.n, old.n)
		copy(ch.counts, old.counts)
		copy(ch.sums, old.sums)
		copy(ch.mins, old.mins)
		copy(ch.maxs, old.maxs)
		copy(ch.cfs, old.cfs)
	}
	return ch
}

// chunkOf returns the chunk of cell c and c's offset in it.
func (sc *scanner) chunkOf(c int32) (*cellChunk, int) {
	return &sc.chunks[c>>cellChunkShift], int(c & cellChunkMask)
}

// newCell records the cell the current emission creates in the given
// bucket: idx[ai] is the position in axes[ai].table.anc of the ancestor
// the combination uses.
func (sc *scanner) newCell(bucket int32, axes []*axisView, idx []int32) {
	c := sc.cells
	switch k := len(sc.chunks); {
	case k == 0:
		sc.chunks = append(sc.chunks, sc.newChunk(16, nil))
	case c&cellChunkMask == 0 && c>>cellChunkShift == int32(k):
		sc.chunks = append(sc.chunks, sc.newChunk(1<<cellChunkShift, nil))
	case int(c) == len(sc.chunks[0].bucket):
		// Only the first chunk grows, fourfold until it is full.
		sc.chunks[0] = sc.newChunk(4*int(c), &sc.chunks[0])
	}
	ch, off := sc.chunkOf(c)
	na := len(axes)
	for ai, v := range axes {
		ch.first[off*na+ai] = v.table.anc[idx[ai]].ord
	}
	ch.bucket[off] = bucket
	sc.cells++
}

// scan classifies and folds the live shards into cells, numbered in
// first-sight order. Per tuple it reads arrays only — the slot of the
// instant, in a version mode the resolution of each coordinate, the
// dice column and the rollup table by the member ordinal the tuple
// stores, the cell by bucket and group ordinals; it probes no map,
// takes no lock and allocates only when it meets an instant, an
// ancestor set or a cell for the first time.
//
// A stored tuple whose every axis reads a sole ancestor (rollupTable.up)
// with an interned group, into a cell that exists, is classified inline
// by those reads alone, with no side effect. Any other tuple — a first
// sight of a set or a cell, a multiple or non-covering hierarchy, an
// ordinal past the table, a grand total — goes through classify, the
// one general path, from the start.
//
// A shard's emissions are collected, then folded, one shard at a time.
// That is the fold order of folding each emission where it is
// classified; the interleaved form, one fold call per tuple, measured
// about 50 % slower on one core (BenchmarkShardedScan's rollup leg,
// fastest of four runs: 2.8 ms against 1.85 ms), and a Sum-only fold
// written into the loop no faster. The buffer holds one shard's
// emissions and is reused for every shard.
//
// The loop reads a tuple's slot by its instant, and the slot's axis
// views into locals only when they differ from the slot before's:
// facts loaded member by member change instant at almost every tuple,
// but rarely change structure.
//
// In a version mode a tuple whose every coordinate passes through its
// resolution table is read as it is stored. Any other tuple is
// presented (presenter) and each of its emissions classified on its
// target coordinates, except that an emission on a target that can
// merge (Definition 11's f' is a function: presentations landing on one
// coordinate and instant are one tuple) goes to the merge map; the
// merged tuples are classified and folded last, in first-sight order.
func (sc *scanner) scan(ctx context.Context) error {
	p, ft := sc.p, sc.ft
	nd := ft.nd
	hasDead := ft.dead > 0
	rng := p.rng
	// In a version mode, which coordinates pass as stored, per dimension.
	var passes [][]bool
	if p.pres != nil {
		passes = p.pres.pass
	}
	dicePos, axisPos, pairs := sc.dicePos, sc.axisPos, sc.pairs
	na, slotAt, t0 := len(axisPos), sc.slotAt, sc.t0
	// Most tuples emit once; a multiple hierarchy grows the buffer by
	// append.
	emits := make([]emission, 0, MappedShardSize)
	// sl is the slot of the tuple before, cur its ordinal + 1. When the
	// slot changes to one that reads other axis views (views is the
	// offset of the ones read), each axis's rollup table up column and
	// group ordinals are read into reads.
	var sl *scanSlot
	cur, views := int32(0), int32(-1)
	reads := make([]axisRead, na)
	for si, sh := range ft.shards {
		if !sc.live[si] {
			continue
		}
		sc.scanned += sh.n
		emits, sc.xvals, sc.xcfs, sc.xrows = emits[:0], sc.xvals[:0], sc.xcfs[:0], 0
	tuples:
		for j, t := range sh.times[:sh.n] {
			if j%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: query cancelled: %w", err)
				}
			}
			if hasDead && !sh.isLive(j) {
				continue // tombstoned by a retraction
			}
			// The slot window lies inside the queried range, so an
			// instant with a slot there needs no range check.
			i := int32(0)
			if off := uint64(t - t0); off < uint64(len(slotAt)) {
				i = slotAt[off]
			}
			if i == 0 {
				if !rng.Contains(t) {
					continue
				}
				i = sc.slot(t)
			}
			if i != cur {
				if cur, sl = i, &sc.slots[i-1]; sl.axes != views {
					views = sl.axes
					for ai, v := range sc.axesOf(sl) {
						reads[ai] = axisRead{v.table.up, v.groups}
					}
				}
			}
			coords := sh.coords[j*nd : (j+1)*nd]
			for i, pass := range passes {
				if !pass[coords[i]] {
					emits = sc.present(emits, sl, t, coords, sh.values[j*ft.nm:(j+1)*ft.nm])
					continue tuples
				}
			}
			// The tuple as stored: ordinal → up → group → cell, per axis.
			if len(dicePos) > 0 && !sc.diced(sl, coords) {
				continue
			}
			cell, ai := sl.prefix, 0
			for ; ai < na; ai++ {
				r := &reads[ai]
				ord, up := coords[axisPos[ai]], r.up
				if uint(ord) >= uint(len(up)) || up[ord] < 0 {
					break
				}
				rows := pairs[ai+1].rows
				if int(cell) >= len(rows) {
					break
				}
				// A group not interned yet is negative, so out of the row.
				g, row := r.groups[up[ord]], rows[cell]
				if uint(g) >= uint(len(row)) || row[g] == 0 {
					break
				}
				cell = row[g] - 1
			}
			if na > 0 && ai == na {
				emits = append(emits, emission{tuple: int32(j), cell: cell})
			} else {
				emits = sc.classify(emits, sl, coords, int32(j))
			}
		}
		sc.fold(sh, emits)
	}
	if m := sc.merged; m != nil {
		emits = emits[:0]
		for x, t := range m.times {
			emits = sc.classify(emits, &sc.slots[sc.slot(t)-1], m.coords[x*nd:(x+1)*nd], ^int32(x))
		}
		sc.foldRows(m.values, m.cfs, emits)
		sc.merged = nil
		m.release()
	}
	return nil
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
	for di, in := range sc.dicesOf(sl) {
		if o := coords[sc.dicePos[di]]; uint(o) >= uint(len(in)) || !in[o] {
			return false
		}
	}
	return true
}

// classify appends the emissions of one tuple that passed the dices,
// with the given coordinates in slot sl, to emits: none when it
// misses a grouping level (non-covering hierarchy), one per combination
// of its ancestors at the grouping levels otherwise — each axis may roll
// the tuple up to several members (multiple hierarchies). It is the
// scan's one general path: it interns sets and creates cells, and the
// scan's loop reads inline only what it has already done.
func (sc *scanner) classify(emits []emission, sl *scanSlot, coords []int32, tuple int32) []emission {
	lo, hi, idx, axes := sc.lo, sc.hi, sc.idx, sc.axesOf(sl)
	for ai, pos := range sc.axisPos {
		v := axes[ai]
		lo[ai], hi[ai] = v.table.setOf(coords[pos])
		if lo[ai] == hi[ai] {
			return emits
		}
		if v.groups[lo[ai]] < 0 {
			sc.internSet(ai, v, lo[ai], hi[ai])
		}
	}
	copy(idx, lo)
	prefix := sl.prefix
	if len(axes) == 0 {
		prefix = sc.pairs[0].get(0, sl.bucket) // the cell: one emission
	}
	for {
		cell := prefix
		for ai, v := range axes {
			cell = sc.pairs[ai+1].get(cell, v.groups[idx[ai]])
		}
		if cell == sc.cells {
			sc.newCell(sl.bucket, axes, idx)
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
// emissions of stored tuples fold from the shard's values with
// confidence sd (Definition 11: f'|tcm = f × {sd}ᵐ, and a tuple read as
// stored presents as itself), runs of presented ones from the
// scanner's values and confidences.
func (sc *scanner) fold(sh *factShard, emits []emission) {
	if sc.xrows == 0 {
		sc.foldRows(sh.values, nil, emits)
		return
	}
	for len(emits) > 0 {
		stored, n := emits[0].tuple >= 0, 1
		for n < len(emits) && (emits[n].tuple >= 0) == stored {
			n++
		}
		if stored {
			sc.foldRows(sh.values, nil, emits[:n])
		} else {
			sc.foldRows(sc.xvals, sc.xcfs, emits[:n])
		}
		emits = emits[n:]
	}
}

// foldRows folds emissions whose tuples are all rows of the given value
// and confidence columns, a row either as is or complemented (^row),
// one chunk of cells at a time: when the cells lie in several chunks,
// the emissions are first ordered by chunk, stably, so each cell still
// folds its emissions in tuple order.
func (sc *scanner) foldRows(values []float64, tcfs []Confidence, emits []emission) {
	sc.emitted += len(emits)
	if len(sc.chunks) == 1 {
		sc.foldChunk(&sc.chunks[0], values, tcfs, emits)
		return
	}
	ends := append(sc.chunkEnds[:0], make([]int, len(sc.chunks))...)
	for _, e := range emits {
		ends[e.cell>>cellChunkShift]++
	}
	at := 0
	for k, n := range ends {
		ends[k] = at
		at += n
	}
	by := append(sc.byChunk[:0], emits...)
	for _, e := range emits {
		k := e.cell >> cellChunkShift
		by[ends[k]] = emission{tuple: e.tuple, cell: e.cell & cellChunkMask}
		ends[k]++
	}
	sc.byChunk, sc.chunkEnds = by, ends
	from := 0
	for k, end := range ends {
		if end > from {
			sc.foldChunk(&sc.chunks[k], values, tcfs, by[from:end])
		}
		from = end
	}
}

// foldChunk folds emissions into cells of one chunk, each emission's
// cell an offset in the chunk. Each selected measure folds its values
// into its typed columns in one pass over the emissions, so a cell
// still folds them in tuple order. A nil confidence column folds every
// factor as sd, and takes no ⊗cf step at all while skipSD holds.
func (sc *scanner) foldChunk(ch *cellChunk, values []float64, tcfs []Confidence, emits []emission) {
	nm, nq := sc.ft.nm, len(sc.p.mIdx)
	for k, mi := range sc.p.mIdx {
		sums, counts := ch.sums, ch.counts
		if sc.minMax {
			mins, maxs := ch.mins, ch.maxs
			for _, e := range emits {
				j, x := int(e.tuple^e.tuple>>31), int(e.cell)*nq+k
				// A NaN value (unknown mapping) is not folded: it poisons
				// the confidence factor, not the number.
				if v := values[j*nm+mi]; v == v {
					sums[x] += v
					counts[x]++
					if v < mins[x] {
						mins[x] = v
					}
					if v > maxs[x] {
						maxs[x] = v
					}
				}
			}
			continue
		}
		// Without a Min or a Max the pass tests nothing else per
		// emission: a minMax test in one shared loop measured slower on
		// BenchmarkShardedScan's rollup leg.
		for _, e := range emits {
			j, x := int(e.tuple^e.tuple>>31), int(e.cell)*nq+k
			if v := values[j*nm+mi]; v == v {
				sums[x] += v
				counts[x]++
			}
		}
	}
	cellN := ch.n
	if tcfs == nil && sc.skipSD {
		for _, e := range emits {
			cellN[e.cell]++
		}
		return
	}
	alg, comb := sc.p.s.alg, &sc.comb
	for _, e := range emits {
		j, c := int(e.tuple^e.tuple>>31), int(e.cell)
		cfs, first := ch.cfs[c*nq:(c+1)*nq], cellN[c] == 0
		for k, mi := range sc.p.mIdx {
			b := SourceData
			if tcfs != nil {
				b = tcfs[j*nm+mi]
			}
			if a := cfs[k]; first {
				cfs[k] = b
			} else if a|b < numConfidence {
				cfs[k] = comb[a][b]
			} else {
				cfs[k] = alg.Combine(a, b)
			}
			if cfs[k] >= numConfidence {
				sc.skipSD = false
			}
		}
		cellN[c]++
	}
}

// order returns the cell ordinals in result order: by time bucket,
// then by each axis's display name, compared byte by byte. Equal
// display names are one group, so (bucket, names) is one cell and the
// order is total. It ranks the scan's own buckets and names, then
// sorts the cells by those ranks with one stable counting sort per key,
// least significant first: no string is compared per cell, and any
// number of axes goes through the one loop. tmp and keys, one entry per
// cell each, are its scratch.
func (sc *scanner) order(tmp, keys []int32) []int32 {
	n, na := int(sc.cells), len(sc.p.axes)
	perm := make([]int32, n)
	for c := range perm {
		perm[c] = int32(c)
	}
	// sortBy reorders perm stably by keys, each below k.
	sortBy := func(k int) {
		count := make([]int32, k+1)
		for _, c := range perm {
			count[keys[c]+1]++
		}
		for r := 1; r < k; r++ {
			count[r] += count[r-1]
		}
		for _, c := range perm {
			r := keys[c]
			tmp[count[r]] = c
			count[r]++
		}
		perm, tmp = tmp, perm
	}
	for ai := na - 1; ai >= 0; ai-- {
		names := sc.groupNames[ai]
		rank := ranks(len(names), func(a, b int32) int { return strings.Compare(names[a], names[b]) })
		groupOf := sc.memberGroup[ai]
		for c := range keys {
			ch, off := sc.chunkOf(int32(c))
			keys[c] = rank[groupOf[ch.first[off*na+ai]]-1]
		}
		sortBy(len(names))
	}
	nb := len(sc.buckets)
	rank := ranks(nb, func(a, b int32) int { return cmp.Compare(sc.buckets[a].order, sc.buckets[b].order) })
	for c := range keys {
		ch, off := sc.chunkOf(int32(c))
		keys[c] = rank[ch.bucket[off]]
	}
	sortBy(nb)
	if na%2 == 0 {
		// An odd number of sorts leaves the order in the scratch.
		copy(tmp, perm)
		perm = tmp
	}
	return perm
}

// ranks returns the rank of each of the n ordinals under compare, which
// tells any two apart.
func ranks(n int, compare func(a, b int32) int) []int32 {
	byRank := make([]int32, n)
	for i := range byRank {
		byRank[i] = int32(i)
	}
	slices.SortFunc(byRank, compare)
	rank := make([]int32, n)
	for r, i := range byRank {
		rank[i] = int32(r)
	}
	return rank
}

// result orders the cells (order, with two of the result's columns as
// its scratch) and packs them into the result's columns in that order:
// the one place a scan writes a cell's display names. Each axis's table
// holds the members the cells name, in the order the result first names
// them, read off memberGroup, which order has read for the last time and
// which this numbers them in: a named member's group g+1 turns to -(g+1)
// when the first pass counts it, then to its table index + 1 when the
// second pass enters it.
func (sc *scanner) result() *Result {
	p := sc.p
	n, nq, na := int(sc.cells), len(p.mIdx), len(p.axes)
	res := &Result{MeasureNames: p.mNames, GroupNames: p.gNames, Mode: p.mode}
	res.alloc(n)
	perm := sc.order(res.bucket, res.n)
	res.keys = make([]string, len(sc.buckets))
	for b, ref := range sc.buckets {
		res.keys[b] = ref.key
	}
	res.names, res.ids = make([][]string, na), make([][]MVID, na)
	for ai, ax := range p.axes {
		byMember, count := sc.memberGroup[ai], 0
		for _, c := range perm {
			ch, off := sc.chunkOf(c)
			if ord := ch.first[off*na+ai]; byMember[ord] > 0 {
				byMember[ord] = -byMember[ord]
				count++
			}
		}
		names, ids := make([]string, 0, count), make([]MVID, 0, count)
		order, groupNames := p.dims[ax.dim].d.order, sc.groupNames[ai]
		for i, c := range perm {
			ch, off := sc.chunkOf(c)
			ord := ch.first[off*na+ai]
			if g := byMember[ord]; g < 0 {
				names = append(names, groupNames[-g-1])
				ids = append(ids, order[ord])
				byMember[ord] = int32(len(names))
			}
			res.member[i*na+ai] = byMember[ord] - 1
		}
		res.names[ai], res.ids[ai] = names, ids
	}
	for i, c := range perm {
		ch, off := sc.chunkOf(c)
		res.bucket[i] = ch.bucket[off]
		res.n[i] = ch.n[off]
		for k, mi := range p.mIdx {
			x := off*nq + k
			var lo, hi float64
			if sc.minMax {
				lo, hi = ch.mins[x], ch.maxs[x]
			}
			res.values[i*nq+k] = aggValue(p.s.measures[mi].Agg, ch.sums[x], lo, hi, int(ch.counts[x]))
		}
		copy(res.cfs[i*nq:(i+1)*nq], ch.cfs[off*nq:(off+1)*nq])
	}
	return res
}
