package core

import (
	"context"
	"fmt"
	"sync"

	"mvolap/internal/temporal"
)

// cellEmit says "this tuple folds into this cell": what classification
// hands the fold, one per (tuple, ancestor combination). It is eight
// bytes and holds no pointer, so the emission buffers cost the
// collector nothing to scan.
type cellEmit struct {
	tuple int32 // global position in the mapped table (2³¹ tuples would not fit in memory)
	cell  int32 // ordinal among the emitting worker's cells
}

// emitPool recycles emission buffers between scans.
var emitPool sync.Pool

func getEmitBuf(capacity int) []cellEmit {
	if b, _ := emitPool.Get().(*[]cellEmit); b != nil && cap(*b) >= capacity {
		return (*b)[:0]
	}
	return make([]cellEmit, 0, capacity)
}

// maxSlotWindow bounds the instant-indexed slot array of a scan worker;
// instants further than this from the window's start go through a map.
const maxSlotWindow = 1 << 12

// scanSlot is what a worker knows about one fact instant: its time
// bucket and, per axis and per dice, the view of the structure the
// instant's tuples roll up in. Views of static dimensions are shared by
// every slot.
type scanSlot struct {
	bucket int32
	axes   []*axisView
	dices  []*diceView
}

// axisView is a worker's reading of one rollup table: groups runs
// parallel to table.anc and holds the worker's group ordinal of each
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

// scanWorker classifies a contiguous range of shards. Everything it
// interns — buckets, groups, cells — is numbered locally in first-sight
// order, which within a worker is global tuple order; mergeCells
// renumbers the later workers' cells into the first worker's afterwards.
type scanWorker struct {
	p      *scanPlan
	mt     *MappedTable
	live   []bool
	lo, hi int // shard range

	// slotAt maps instant t0+i to slots[slotAt[i]-1] (0: not met yet);
	// slotFar does the same for instants outside that window.
	t0      temporal.Instant
	slotAt  []int32
	slotFar map[temporal.Instant]int32
	slots   []scanSlot
	// Views of static dimensions, per axis and per dice (nil otherwise);
	// classify builds them before its first tuple.
	staticAxes  []*axisView
	staticDices []*diceView

	buckets   []bucketRef
	bucketOrd map[int64]int32 // by bucketRef.order
	// Per axis: group ordinals by display name, each group's name and
	// name hash by ordinal, and the group ordinal + 1 of the members met
	// as ancestors, by member ordinal (0: not met yet).
	groupOrd    []map[string]int32
	groupName   [][]string
	groupHash   [][]uint32
	memberGroup [][]int32

	// pairs is the cell chain: pairs[0] numbers the buckets that emit,
	// pairs[ai+1] extends a cell prefix by axis ai's group. A cell's
	// columns follow, cellGroups and cellFirst one entry per axis: its
	// group ordinals, and the ancestors of the emission that created it
	// (a row takes its GroupIDs from its globally first emission).
	pairs      []pairIndex
	cellBucket []int32
	cellPart   []int32 // fold partition, a function of the cell's content
	cellGroups []int32
	cellFirst  []*MemberVersion
	// cellSlot is the cell's row position within its fold partition;
	// mergeCells fills it.
	cellSlot []int32

	// bufs holds the emissions, one buffer per fold partition.
	bufs    [][]cellEmit
	scanned int
}

func newScanWorker(p *scanPlan, mt *MappedTable, live []bool, lo, hi, nparts int, t0 temporal.Instant, window int) *scanWorker {
	na := len(p.axes)
	w := &scanWorker{
		p: p, mt: mt, live: live, lo: lo, hi: hi,
		t0:          t0,
		slotAt:      make([]int32, window),
		staticAxes:  make([]*axisView, na),
		staticDices: make([]*diceView, len(p.dices)),
		bucketOrd:   make(map[int64]int32),
		groupOrd:    make([]map[string]int32, na),
		groupName:   make([][]string, na),
		groupHash:   make([][]uint32, na),
		memberGroup: make([][]int32, na),
		pairs:       make([]pairIndex, na+1),
		bufs:        make([][]cellEmit, nparts),
	}
	for ai := range w.groupOrd {
		w.groupOrd[ai] = make(map[string]int32)
	}
	return w
}

// release hands the emission buffers back to the pool.
func (w *scanWorker) release() {
	for i, b := range w.bufs {
		if b != nil {
			emitPool.Put(&b)
			w.bufs[i] = nil
		}
	}
}

func (w *scanWorker) emitted() int {
	n := 0
	for _, b := range w.bufs {
		n += len(b)
	}
	return n
}

// slot returns the slot of instant t, building it on first sight: the
// one place a worker renders a time bucket or fetches a rollup table.
func (w *scanWorker) slot(t temporal.Instant) *scanSlot {
	off := uint64(t - w.t0)
	near := off < uint64(len(w.slotAt))
	if near {
		if i := w.slotAt[off]; i != 0 {
			return &w.slots[i-1]
		}
	} else if i, ok := w.slotFar[t]; ok {
		return &w.slots[i-1]
	}

	p := w.p
	var br bucketRef
	br.key, br.order = bucketOf(p.grain, t)
	sl := scanSlot{
		bucket: w.internBucket(br),
		axes:   make([]*axisView, len(p.axes)),
		dices:  make([]*diceView, len(p.dices)),
	}
	for ai, ax := range p.axes {
		if sl.axes[ai] = w.staticAxes[ai]; sl.axes[ai] == nil {
			sl.axes[ai] = newAxisView(p.dims[ax.dim].d.rollupTableAt(ax.level, t))
		}
	}
	for di, dc := range p.dices {
		if sl.dices[di] = w.staticDices[di]; sl.dices[di] == nil {
			sl.dices[di] = newDiceView(p.dims[dc.dim].d, t, dc.names)
		}
	}
	w.slots = append(w.slots, sl)
	i := int32(len(w.slots))
	if near {
		w.slotAt[off] = i
	} else {
		if w.slotFar == nil {
			w.slotFar = make(map[temporal.Instant]int32)
		}
		w.slotFar[t] = i
	}
	return &w.slots[i-1]
}

func newAxisView(tab *rollupTable) *axisView {
	v := &axisView{table: tab, groups: make([]int32, len(tab.anc))}
	for i := range v.groups {
		v.groups[i] = -1
	}
	return v
}

func (w *scanWorker) internBucket(br bucketRef) int32 {
	b, ok := w.bucketOrd[br.order]
	if !ok {
		b = int32(len(w.buckets))
		w.bucketOrd[br.order] = b
		w.buckets = append(w.buckets, br)
	}
	return b
}

func (w *scanWorker) internGroup(ai int, name string) int32 {
	g, ok := w.groupOrd[ai][name]
	if !ok {
		g = int32(len(w.groupName[ai]))
		w.groupOrd[ai][name] = g
		w.groupName[ai] = append(w.groupName[ai], name)
		w.groupHash[ai] = append(w.groupHash[ai], fnv32(name))
	}
	return g
}

// internSet gives the ancestors anc[lo:hi] of axis ai their group
// ordinals, once per (worker, set). A member keeps its display name, so
// the name is probed once per (worker, member) and read back by the
// member's ordinal at every other instant it is an ancestor at.
func (w *scanWorker) internSet(ai int, v *axisView, lo, hi int32) {
	byMember := w.memberGroup[ai]
	for x := lo; x < hi; x++ {
		mv := v.table.anc[x]
		if byMember[mv.ord] == 0 {
			byMember[mv.ord] = w.internGroup(ai, mv.DisplayName()) + 1
		}
		v.groups[x] = byMember[mv.ord] - 1
	}
}

// newCell records the cell the current emission creates: idx[ai] is the
// position in axis ai's table.anc of the ancestor the combination uses.
func (w *scanWorker) newCell(sl *scanSlot, idx []int32) {
	h := uint32(w.buckets[sl.bucket].order) * 2654435761
	for ai, v := range sl.axes {
		g := v.groups[idx[ai]]
		w.cellGroups = append(w.cellGroups, g)
		w.cellFirst = append(w.cellFirst, v.table.anc[idx[ai]])
		h = (h ^ w.groupHash[ai][g]) * 16777619
	}
	w.cellBucket = append(w.cellBucket, sl.bucket)
	w.cellPart = append(w.cellPart, int32(h%uint32(len(w.bufs))))
}

// classify scans the worker's live shards. Per tuple it reads arrays —
// the slot of the instant, the rollup table by member ordinal, the cell
// by bucket and group ordinals — and probes one map, the dimension's
// member index, per dimension used; it takes no lock and allocates only
// when it meets an instant, an ancestor set or a cell for the first
// time.
func (w *scanWorker) classify(ctx context.Context) error {
	p, mt := w.p, w.mt
	nd := mt.nd
	hasDead := mt.dead > 0
	rng := p.rng

	liveTuples := 0
	for si := w.lo; si < w.hi; si++ {
		if w.live[si] {
			liveTuples += mt.shards[si].n
		}
	}
	if liveTuples == 0 {
		return nil
	}
	// Most tuples emit once; a skewed partition split or a multiple
	// hierarchy grows a buffer by append, and the pool keeps the growth.
	for i := range w.bufs {
		w.bufs[i] = getEmitBuf(liveTuples/len(w.bufs) + liveTuples/8 + 64)
	}
	for ai, ax := range p.axes {
		dim := &p.dims[ax.dim]
		w.memberGroup[ai] = make([]int32, len(dim.d.order))
		if dim.static {
			w.staticAxes[ai] = newAxisView(dim.d.rollupTableAt(ax.level, dim.at))
		}
	}
	for di, dc := range p.dices {
		if dim := &p.dims[dc.dim]; dim.static {
			w.staticDices[di] = newDiceView(dim.d, dim.at, dc.names)
		}
	}

	ords := make([]int32, len(p.dims)) // the tuple's member ordinal per dimension read
	// Per axis, the bounds in table.anc of the tuple's ancestor set and
	// the odometer over their combinations.
	lo := make([]int32, len(p.axes))
	hi := make([]int32, len(p.axes))
	idx := make([]int32, len(p.axes))
	steps := 0
	// Fact instants repeat in runs; sl is the slot of lastT.
	var sl *scanSlot
	var lastT temporal.Instant
	for si := w.lo; si < w.hi; si++ {
		if !w.live[si] {
			continue
		}
		sh := mt.shards[si]
		base := si << shardShift
		w.scanned += sh.n
	tuples:
		for j := 0; j < sh.n; j++ {
			if steps%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("core: query cancelled: %w", err)
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
				sl, lastT = w.slot(t), t
			}
			coords := sh.coords[j*nd : (j+1)*nd]
			for k := range p.dims {
				mv := p.dims[k].d.members[coords[p.dims[k].pos]]
				if mv == nil {
					continue tuples // an unknown coordinate has no ancestors and passes no dice
				}
				ords[k] = mv.ord
			}
			for di := range p.dices {
				if !sl.dices[di].contains(ords[p.dices[di].dim]) {
					continue tuples
				}
			}
			// Each axis may roll the fact up to several members (multiple
			// hierarchies); a fact contributes to every combination.
			for ai := range p.axes {
				v := sl.axes[ai]
				lo[ai], hi[ai] = v.table.setOf(ords[p.axes[ai].dim])
				if lo[ai] == hi[ai] {
					continue tuples // non-covering hierarchy: no ancestor at the level
				}
				if v.groups[lo[ai]] < 0 {
					w.internSet(ai, v, lo[ai], hi[ai])
				}
			}
			copy(idx, lo)
			for {
				cell := w.pairs[0].get(0, sl.bucket)
				for ai, v := range sl.axes {
					cell = w.pairs[ai+1].get(cell, v.groups[idx[ai]])
				}
				if int(cell) == len(w.cellPart) {
					w.newCell(sl, idx)
				}
				part := w.cellPart[cell]
				w.bufs[part] = append(w.bufs[part], cellEmit{tuple: int32(base + j), cell: cell})
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
	}
	return nil
}

// absorb renumbers o's cells in w's numbering — once per cell, never per
// emission — adding to w the buckets, groups and cells only o met, and
// returns w's ordinal of each of o's cells. A cell both met keeps w's
// record of it: the ancestors of w's first emission.
func (w *scanWorker) absorb(o *scanWorker) []int32 {
	na := len(w.p.axes)
	toBucket := make([]int32, len(o.buckets))
	for i, br := range o.buckets {
		toBucket[i] = w.internBucket(br)
	}
	toGroup := make([][]int32, na)
	for ai, names := range o.groupName {
		toGroup[ai] = make([]int32, len(names))
		for i, name := range names {
			toGroup[ai][i] = w.internGroup(ai, name)
		}
	}
	remap := make([]int32, len(o.cellPart))
	for c := range o.cellPart {
		groups := o.cellGroups[c*na : (c+1)*na]
		cell := w.pairs[0].get(0, toBucket[o.cellBucket[c]])
		for ai, g := range groups {
			cell = w.pairs[ai+1].get(cell, toGroup[ai][g])
		}
		if int(cell) == len(w.cellPart) {
			w.cellBucket = append(w.cellBucket, toBucket[o.cellBucket[c]])
			w.cellPart = append(w.cellPart, o.cellPart[c])
			for ai, g := range groups {
				w.cellGroups = append(w.cellGroups, toGroup[ai][g])
			}
			w.cellFirst = append(w.cellFirst, o.cellFirst[c*na:(c+1)*na]...)
		}
		remap[c] = cell
	}
	return remap
}

// mergeCells makes the first worker's cell numbering the global one:
// the later workers are absorbed in shard order, each one's cells in
// the order it met them, so the cells end up in global first-sight
// order and each is recorded by its globally first emission — a row
// takes its groups from that emission at any worker count. It returns
// the cells of each fold partition in that order and sets every
// worker's cellSlot to its cells' positions in those lists.
func mergeCells(workers []*scanWorker, nparts int) [][]int32 {
	parts := make([][]int32, nparts)
	if len(workers) == 0 {
		return parts
	}
	all := workers[0]
	for _, o := range workers[1:] {
		o.cellSlot = all.absorb(o)
	}
	all.cellSlot = make([]int32, len(all.cellPart))
	for c, part := range all.cellPart {
		all.cellSlot[c] = int32(len(parts[part]))
		parts[part] = append(parts[part], int32(c))
	}
	for _, o := range workers[1:] {
		for c, cell := range o.cellSlot {
			o.cellSlot[c] = all.cellSlot[cell]
		}
	}
	return parts
}

// foldPartition folds one partition's emissions into rows: Definition
// 12's ⊕ per measure and ⊗cf per confidence factor, every emission read
// exactly once. cells lists the partition's cells by their ordinal in
// the first worker, which mergeCells made global; rows, accumulators,
// values and group columns are slabs indexed by position in cells.
func (p *scanPlan) foldPartition(mt *MappedTable, workers []*scanWorker, part int, cells []int32) []*Row {
	n, nm, na := len(cells), len(p.mIdx), len(p.axes)
	rows := make([]Row, n)
	out := make([]*Row, n)
	values := make([]float64, n*nm)
	cfs := make([]Confidence, n*nm)
	accs := make([]Accumulator, n*nm)
	groups := make([]string, n*na)
	groupIDs := make([]MVID, n*na)
	for i, cell := range cells {
		all, c := workers[0], int(cell)
		br := all.buckets[all.cellBucket[c]]
		r := &rows[i]
		r.TimeKey, r.timeOrder = br.key, br.order
		r.Groups = groups[i*na : (i+1)*na : (i+1)*na]
		r.GroupIDs = groupIDs[i*na : (i+1)*na : (i+1)*na]
		for ai, mv := range all.cellFirst[c*na : (c+1)*na] {
			r.Groups[ai] = mv.DisplayName()
			r.GroupIDs[ai] = mv.ID
		}
		r.Values = values[i*nm : (i+1)*nm : (i+1)*nm]
		r.CFs = cfs[i*nm : (i+1)*nm : (i+1)*nm]
		for k, mi := range p.mIdx {
			accs[i*nm+k] = emptyAccumulator(p.s.measures[mi].Agg)
		}
		out[i] = r
	}
	alg := p.s.alg
	for _, w := range workers {
		for _, e := range w.bufs[part] {
			i := int(w.cellSlot[e.cell])
			sh, j := mt.shardAt(int(e.tuple))
			vals := sh.values[j*mt.nm : (j+1)*mt.nm]
			tcfs := sh.cfs[j*mt.nm : (j+1)*mt.nm]
			r := &rows[i]
			for k, mi := range p.mIdx {
				accs[i*nm+k].Add(vals[mi])
				if r.N == 0 {
					r.CFs[k] = tcfs[mi]
				} else {
					r.CFs[k] = alg.Combine(r.CFs[k], tcfs[mi])
				}
			}
			r.N++
		}
	}
	for i := range values {
		values[i] = accs[i].Value()
	}
	return out
}

// fnv32 is FNV-1a, used to spread cells across fold partitions by the
// content of their group names.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
