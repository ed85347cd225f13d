package core

import (
	"cmp"
	"context"
	"fmt"
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
// view of the structure the instant's tuples roll up in. Views of static
// dimensions are shared by every slot, and an axis view by every slot
// whose instant reads its rollup table.
type scanSlot struct {
	bucket, prefix int32
	axes           []*axisView
	dices          []*diceView
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
		if v.d.HasAncestorNamedAt(v.d.order[ord], v.names, v.at) {
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
	// Views of static dimensions, per axis and per dice (nil otherwise);
	// per axis of a time-dependent dimension, its views by rollup table.
	staticAxes  []*axisView
	staticDices []*diceView
	tableViews  []map[*rollupTable]*axisView

	buckets   []bucketRef
	bucketOrd map[int64]int32 // by bucketRef.order
	// Per axis: group ordinals by display name and display names by
	// group ordinal, and the group ordinal + 1 of the members met as
	// ancestors, by member ordinal (0: not met yet).
	groupOrd    []map[string]int32
	groupNames  [][]string
	memberGroup [][]int32

	// pairs is the cell chain: pairs[0] numbers the buckets that emit,
	// pairs[ai+1] extends a cell prefix by axis ai's group. A cell's
	// columns follow: its bucket; one entry per axis in cellFirst, the
	// member ordinals of the ancestors of the emission that created it
	// (a row takes its GroupIDs from its first emission); one
	// accumulator and one combined confidence per selected measure; its
	// emission count.
	pairs      []pairIndex
	cellBucket []int32
	cellFirst  []int32
	accs       []Accumulator
	cfs        []Confidence
	cellN      []int32

	// The coordinate position each dice and each axis reads; per axis,
	// the bounds in table.anc of a tuple's ancestor set and the odometer
	// over their combinations.
	dicePos, axisPos []int
	lo, hi, idx      []int32

	// comb is ⊗cf tabulated over the four factors (Definition 6: a
	// function of its two operands), comb[a][b] = alg.Combine(a, b).
	comb [numConfidence][numConfidence]Confidence
	// sdRow is one row of sd factors, what every stored tuple folds
	// (Definition 11: f'|tcm = f × {sd}ᵐ).
	sdRow []Confidence

	scanned, emitted int
}

func newScanner(p *scanPlan, ft *FactTable, live []bool, t0 temporal.Instant, window int) *scanner {
	na := len(p.axes)
	sc := &scanner{
		p: p, ft: ft, live: live,
		t0:          t0,
		slotAt:      make([]int32, window),
		staticAxes:  make([]*axisView, na),
		staticDices: make([]*diceView, len(p.dices)),
		tableViews:  make([]map[*rollupTable]*axisView, na),
		bucketOrd:   make(map[int64]int32),
		groupOrd:    make([]map[string]int32, na),
		groupNames:  make([][]string, na),
		memberGroup: make([][]int32, na),
		pairs:       make([]pairIndex, na+1),
		dicePos:     make([]int, len(p.dices)),
		axisPos:     make([]int, na),
		lo:          make([]int32, na),
		hi:          make([]int32, na),
		idx:         make([]int32, na),
		sdRow:       make([]Confidence, ft.nm),
	}
	for di, dc := range p.dices {
		sc.dicePos[di] = p.dims[dc.dim].pos
	}
	for a := range sc.comb {
		for b := range sc.comb[a] {
			sc.comb[a][b] = p.s.alg.Combine(Confidence(a), Confidence(b))
		}
	}
	for ai, ax := range p.axes {
		dim := &p.dims[ax.dim]
		sc.axisPos[ai] = dim.pos
		sc.groupOrd[ai] = make(map[string]int32)
		sc.memberGroup[ai] = make([]int32, len(dim.d.order))
		if dim.static {
			sc.staticAxes[ai] = newAxisView(dim.d.rollupTableAt(ax.level, dim.at))
		} else {
			sc.tableViews[ai] = make(map[*rollupTable]*axisView)
		}
	}
	for di, dc := range p.dices {
		if dim := &p.dims[dc.dim]; dim.static {
			sc.staticDices[di] = newDiceView(dim.d, dim.at, dc.names)
		}
	}
	if p.res != nil {
		s := p.s
		sc.pres = newPresenter(p.res, p.pres, ft.nm, s.alg, s.mappingGraph().identity)
		sc.merged = newMergeMap(ft.nd, s.measures, s.alg)
	}
	return sc
}

// slot returns the slot of instant t, building it on first sight: the
// one place a scan renders a time bucket or fetches a rollup table.
// Instants of one structure read one rollup table, and share its view:
// a set's groups are interned once per table, not once per instant.
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
	if len(p.axes) > 0 {
		sl.prefix = sc.pairs[0].get(0, sl.bucket)
	}
	for ai, ax := range p.axes {
		if sl.axes[ai] = sc.staticAxes[ai]; sl.axes[ai] != nil {
			continue
		}
		tab := p.dims[ax.dim].d.rollupTableAt(ax.level, t)
		v := sc.tableViews[ai][tab]
		if v == nil {
			v = newAxisView(tab)
			sc.tableViews[ai][tab] = v
		}
		sl.axes[ai] = v
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
				sc.groupNames[ai] = append(sc.groupNames[ai], name)
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
		sc.cellFirst = append(sc.cellFirst, v.table.anc[idx[ai]].ord)
	}
	sc.cellBucket = append(sc.cellBucket, sl.bucket)
	for _, mi := range sc.p.mIdx {
		sc.accs = append(sc.accs, emptyAccumulator(sc.p.s.measures[mi].Agg))
	}
	sc.cfs = append(sc.cfs, make([]Confidence, len(sc.p.mIdx))...)
	sc.cellN = append(sc.cellN, 0)
}

// scan classifies and folds the live shards into cells, numbered in
// first-sight order. Per tuple it reads arrays only — the slot of the
// instant, in a version mode the resolution of each coordinate, the
// dice verdict and the rollup table by the member ordinal the tuple
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
	na, slotAt := len(axisPos), sc.slotAt
	// Most tuples emit once; a multiple hierarchy grows the buffer by
	// append.
	emits := make([]emission, 0, MappedShardSize)
	steps := 0
	// Fact instants repeat in runs; sl is the slot of lastT.
	var sl *scanSlot
	var lastT temporal.Instant
	for si, sh := range ft.shards {
		if !sc.live[si] {
			continue
		}
		sc.scanned += sh.n
		emits, sc.xvals, sc.xcfs, sc.xrows = emits[:0], sc.xvals[:0], sc.xcfs[:0], 0
	tuples:
		for j := 0; j < sh.n; j++ {
			if steps%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: query cancelled: %w", err)
				}
			}
			steps++
			if hasDead && !sh.isLive(j) {
				continue // tombstoned by a retraction
			}
			t := sh.times[j]
			if !rng.Contains(t) {
				continue
			}
			if sl == nil || t != lastT {
				// Facts loaded member by member change instant at almost
				// every tuple: a slot already built in the window is read
				// here, without a call.
				if off := uint64(t - sc.t0); off < uint64(len(slotAt)) && slotAt[off] != 0 {
					sl = &sc.slots[slotAt[off]-1]
				} else {
					sl = sc.slot(t)
				}
				lastT = t
			}
			coords := sh.coords[j*nd : (j+1)*nd]
			for i, pass := range passes {
				if !pass[coords[i]] {
					emits = sc.present(emits, sl, t, coords, sh.values[j*ft.nm:(j+1)*ft.nm])
					continue tuples
				}
			}
			// The tuple as stored.
			for di := range p.dices {
				if !sl.dices[di].contains(coords[dicePos[di]]) {
					continue tuples
				}
			}
			cell, ai := sl.prefix, 0
			for ; ai < na; ai++ {
				v := sl.axes[ai]
				ord, up := coords[axisPos[ai]], v.table.up
				if int(ord) >= len(up) || up[ord] < 0 {
					break
				}
				g, rows := v.groups[up[ord]], pairs[ai+1].rows
				if g < 0 || int(cell) >= len(rows) || int(g) >= len(rows[cell]) || rows[cell][g] == 0 {
					break
				}
				cell = rows[cell][g] - 1
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
			emits = sc.classify(emits, sc.slot(t), m.coords[x*nd:(x+1)*nd], ^int32(x))
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
// the tuple up to several members (multiple hierarchies). It is the
// scan's one general path: it interns sets and creates cells, and the
// scan's loop reads inline only what it has already done.
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
	prefix := sl.prefix
	if len(sl.axes) == 0 {
		prefix = sc.pairs[0].get(0, sl.bucket) // the cell: one emission
	}
	for {
		cell := prefix
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
// and confidence columns, a row either as is or complemented (^row).
// A nil confidence column folds every factor as sd: every row reads
// the scanner's one row of sd factors.
func (sc *scanner) foldRows(values []float64, tcfs []Confidence, emits []emission) {
	nm, nq, alg, comb := sc.ft.nm, len(sc.p.mIdx), sc.p.s.alg, &sc.comb
	stride := nm
	if tcfs == nil {
		tcfs, stride = sc.sdRow, 0
	}
	for _, e := range emits {
		j, c := int(e.tuple^e.tuple>>31), int(e.cell)
		vals, vcfs := values[j*nm:(j+1)*nm], tcfs[j*stride:j*stride+nm]
		accs, cfs := sc.accs[c*nq:(c+1)*nq], sc.cfs[c*nq:(c+1)*nq]
		first := sc.cellN[c] == 0
		for k, mi := range sc.p.mIdx {
			accs[k].Add(vals[mi])
			if a, b := cfs[k], vcfs[mi]; first {
				cfs[k] = b
			} else if a|b < numConfidence {
				cfs[k] = comb[a][b]
			} else {
				cfs[k] = alg.Combine(a, b)
			}
		}
		sc.cellN[c]++
	}
	sc.emitted += len(emits)
}

// order returns the cell ordinals in result order: by time bucket,
// then by each axis's display name, compared byte by byte. Equal
// display names are one group, so (bucket, names) is one cell and the
// order is total. It ranks the scan's own buckets and names, then
// sorts the cells by those ranks with one stable counting sort per key,
// least significant first: no string is compared per cell, and any
// number of axes goes through the one loop.
func (sc *scanner) order() []int32 {
	n, na := len(sc.cellN), len(sc.p.axes)
	perm := make([]int32, n)
	for c := range perm {
		perm[c] = int32(c)
	}
	tmp, keys := make([]int32, n), make([]int32, n)
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
			keys[c] = rank[groupOf[sc.cellFirst[c*na+ai]]-1]
		}
		sortBy(len(names))
	}
	nb := len(sc.buckets)
	rank := ranks(nb, func(a, b int32) int { return cmp.Compare(sc.buckets[a].order, sc.buckets[b].order) })
	for c := range keys {
		keys[c] = rank[sc.cellBucket[c]]
	}
	sortBy(nb)
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

// rows renders the cells as result rows, in the given order. It is the
// one place a scan writes a row's display names.
func (sc *scanner) rows(perm []int32) []*Row {
	n, nq, na := len(perm), len(sc.p.mIdx), len(sc.p.axes)
	rows := make([]Row, n)
	out := make([]*Row, n)
	values := make([]float64, n*nq)
	groups := make([]string, n*na)
	groupIDs := make([]MVID, n*na)
	ids := make([][]MVID, na)
	for ai, ax := range sc.p.axes {
		ids[ai] = sc.p.dims[ax.dim].d.order
	}
	for i, c := range perm {
		c := int(c)
		r := &rows[i]
		r.TimeKey = sc.buckets[sc.cellBucket[c]].key
		r.Groups = groups[i*na : (i+1)*na : (i+1)*na]
		r.GroupIDs = groupIDs[i*na : (i+1)*na : (i+1)*na]
		for ai, ord := range sc.cellFirst[c*na : (c+1)*na] {
			r.Groups[ai] = sc.groupNames[ai][sc.memberGroup[ai][ord]-1]
			r.GroupIDs[ai] = ids[ai][ord]
		}
		r.Values = values[i*nq : (i+1)*nq : (i+1)*nq]
		for k := range r.Values {
			r.Values[k] = sc.accs[c*nq+k].Value()
		}
		r.CFs = sc.cfs[c*nq : (c+1)*nq : (c+1)*nq]
		r.N = int(sc.cellN[c])
		out[i] = r
	}
	return out
}
