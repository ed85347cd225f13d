package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"mvolap/internal/temporal"
)

// MappedFact is one tuple of the MultiVersion Fact Table (Definition 11)
// for a particular temporal mode of presentation: coordinates valid in
// that mode, the (possibly mapped) measure values, and one confidence
// factor per value.
//
// Storage is columnar (see factShard); a MappedFact is a read-only view
// whose Values and CFs alias the shard columns and whose Coords are the
// stored ordinals translated back to IDs. Callers must not mutate it.
type MappedFact struct {
	Coords Coords
	Time   temporal.Instant
	Values []float64
	CFs    []Confidence
	// Sources counts how many source facts were folded into this tuple
	// (greater than one after a merge transition).
	Sources int
	// avgN carries, per measure, the number of non-NaN source
	// contributions folded into Values, so Avg measures merge as true
	// means instead of order-dependent pairwise midpoints. Allocated
	// only when the schema has an Avg measure.
	avgN []int32
}

// MappedShardSize is the number of tuples per storage shard of a
// MappedTable. Every shard except the last is exactly full, so tuple i
// lives in shard i/MappedShardSize at offset i%MappedShardSize. The
// size trades swap granularity (a write privatizes whole shards)
// against sharing granularity (a clone copies one header per shard):
// at 4096 tuples a 100k-fact store is ~25 headers per swap.
const MappedShardSize = 4096

const (
	shardShift = 12 // log2(MappedShardSize)
	shardMask  = MappedShardSize - 1
)

// shardEpochCounter issues table ownership epochs; every table takes a
// fresh one, so a shard carrying another table's epoch is shared.
var shardEpochCounter atomic.Uint64

// factShard is one fixed-size block of mapped tuples in struct-of-
// arrays layout: parallel columns instead of per-tuple structs, so
// aggregation scans are cache-dense and a clone shares untouched
// shards wholesale. A factShard is a header over the columns: it is
// writable only by the table whose epoch it carries, and only at or
// past sharedBelow; every other write copies the columns first
// (privatize). Several headers — one per generation that appended to a
// partial tail — may sit over the same columns, each seeing its own
// prefix of them.
type factShard struct {
	epoch uint64
	n     int
	// claim counts the slots of the columns some header has spoken for;
	// every header over the same columns holds the same counter, and a
	// table appends at slot n in place only after moving it n → n+1
	// (tailShard).
	claim *atomic.Int32
	// sharedBelow is the prefix of the columns this header shares with
	// the header it borrowed them from (see MappedTable.borrow): slots
	// below it are read by other generations, so writing one privatizes.
	sharedBelow int
	// coords holds n*nd member version ordinals (MemberVersion.ord in
	// the table's dimension, position by position), times n instants,
	// values and cfs n*nm entries each, sources n counts, and avgN n*nm
	// Avg contribution counts (nil unless the schema has an Avg measure).
	// No column holds a pointer. Shards a table creates or privatizes
	// have columns of capacity MappedShardSize tuples, so appends never
	// reallocate them.
	coords  []int32
	times   []temporal.Instant
	values  []float64
	cfs     []Confidence
	sources []int32
	avgN    []int32
	// zone caches the shard's zone map (min/max time, per-dimension
	// distinct coordinates). Sealed when the shard fills, invalidated
	// by appends, carried across privatize (the copy has identical
	// coords/times), rebuilt lazily by the query scan otherwise.
	zone atomic.Pointer[shardZone]
}

// MappedTable is the restriction of the MultiVersion Fact Table to one
// temporal mode: f'(·, ·, tmp). The fact store is tcm's table
// (FactTable); a version mode's table exists only when the
// reproduction tier materializes one (MultiVersionFactTable.Mode).
//
// A table is single-writer while it is built and read-only once
// published. A write to the fact store never mutates a published
// table: it takes a copy-on-write clone — shared shards and shared
// frozen index layers — and writes the clone. Appends borrow the shared
// partial tail shard (a header of the clone's own over the same
// columns, after claiming the next slot); a replacement or a tombstone
// in a shared slot privatizes that one shard (per-shard epochs and
// sharedBelow, see writableShard).
type MappedTable struct {
	Mode   Mode
	shards []*factShard
	// shardsShared says another table holds the shards slice too (a
	// clone shares its source's until its first write): a write replaces
	// an element or appends, so it copies the slice first (ownShards).
	shardsShared bool
	// n is the total tuple count; epoch is this table's shard-ownership
	// epoch (a shard with a different epoch is shared and frozen).
	n     int
	epoch uint64
	// nd and nm are the coordinate and measure widths of every tuple.
	nd, nm int
	// dims are the schema's dimensions, whose member version ordinals
	// the coordinates are: a dimension only ever appends versions, so an
	// ordinal names the same version in every generation of a lineage.
	// Only the views (Facts, Lookup) and the export read IDs through
	// them.
	dims []*Dimension
	// index maps a tuple key to its global position, every hit checked
	// against the coordinates and time stored there. A clone shares its
	// frozen layers with the source table; a retraction tombstones
	// the key there, since the slot itself stays put (see keyIndex).
	index keyIndex
	// dead counts tombstoned tuples: slots whose sources count was
	// zeroed by a retraction. The slot itself stays (positional
	// indexing over fixed-size shards must not shift) but every view
	// and scan skips it.
	dead int
	// ords says, per dimension and member version ordinal, how many
	// live tuples hold the ordinal there and at which instants: a version
	// mode's dropped facts are the sum over the ordinals it drops
	// (countDropped), and only presentations of ordinals whose instants
	// meet can land on one tuple (newPresentation). A clone shares the
	// chunk lists until the first write of either side copies them
	// (ordShared), and each chunk until it writes into it (ordChunk).
	ords      [][]*ordChunk
	ordShared bool
	// Dropped counts source facts that could not be presented in this
	// mode at all: no chain of mapping relationships reaches any member
	// version of the target structure version ("impossible cross-points"
	// in the paper's grid rendering, §5.2).
	Dropped int

	alg      ConfidenceAlgebra
	measures []Measure
	hasAvg   bool

	// view caches the row-oriented compatibility view built by Facts().
	// Built lazily after the table is published; a table under
	// construction must not be viewed. The fact store drops it on every
	// write.
	view atomic.Pointer[[]*MappedFact]
}

func newMappedTable(s *Schema, m Mode, capacity int) *MappedTable {
	mt := &MappedTable{
		Mode:     m,
		epoch:    shardEpochCounter.Add(1),
		nd:       len(s.dims),
		nm:       len(s.measures),
		dims:     s.dims,
		index:    newKeyIndex(capacity),
		alg:      s.alg,
		measures: s.measures,
	}
	for _, ms := range s.measures {
		if ms.Agg == Avg {
			mt.hasAvg = true
			break
		}
	}
	return mt
}

// Len reports the number of live mapped tuples (tombstoned slots are
// excluded).
func (mt *MappedTable) Len() int { return mt.n - mt.dead }

// NumShards reports the number of storage shards backing the table.
func (mt *MappedTable) NumShards() int { return len(mt.shards) }

// Facts returns the mapped facts in deterministic order as read-only
// views over the columnar shards. The view is built once per published
// table and cached; callers must not mutate it. Hot paths (query
// aggregation, export) iterate the shards directly instead.
func (mt *MappedTable) Facts() []*MappedFact {
	if v := mt.view.Load(); v != nil {
		return *v
	}
	live, nd := mt.n-mt.dead, mt.nd
	arena := make([]MappedFact, live)
	coords := make(Coords, live*nd)
	out := make([]*MappedFact, 0, live)
	mt.each(0, func(sh *factShard, j int) bool {
		i := len(out)
		mt.fillView(&arena[i], sh, j, coords[i*nd:(i+1)*nd:(i+1)*nd])
		out = append(out, &arena[i])
		return true
	})
	mt.view.Store(&out)
	return out
}

// ids writes the member version IDs of a tuple's ordinals into dst.
func (mt *MappedTable) ids(dst Coords, ords []int32) {
	for i, o := range ords {
		dst[i] = mt.dims[i].order[o]
	}
}

// fillView points one row view at tuple j of a shard, its coordinates
// written into coords.
func (mt *MappedTable) fillView(f *MappedFact, sh *factShard, j int, coords Coords) {
	nd, nm := mt.nd, mt.nm
	mt.ids(coords, sh.coords[j*nd:(j+1)*nd])
	f.Coords = coords
	f.Time = sh.times[j]
	f.Values = sh.values[j*nm : (j+1)*nm : (j+1)*nm]
	f.CFs = sh.cfs[j*nm : (j+1)*nm : (j+1)*nm]
	f.Sources = int(sh.sources[j])
	if sh.avgN != nil {
		f.avgN = sh.avgN[j*nm : (j+1)*nm : (j+1)*nm]
	}
}

// shardAt returns the shard and in-shard offset of global tuple i.
func (mt *MappedTable) shardAt(i int) (*factShard, int) {
	return mt.shards[i>>shardShift], i & shardMask
}

// Lookup returns the mapped tuple at the given coordinates and time as
// a read-only view. It is safe for concurrent use once the table is
// materialized.
func (mt *MappedTable) Lookup(coords Coords, t temporal.Instant) (*MappedFact, bool) {
	i, ok := mt.locate(coords, t)
	if !ok {
		return nil, false
	}
	f := &MappedFact{}
	sh, j := mt.shardAt(i)
	mt.fillView(f, sh, j, make(Coords, mt.nd))
	return f, true
}

// ordinals appends to dst the member version ordinals of coords, one
// per dimension; false when a coordinate names no member version of its
// dimension.
func (mt *MappedTable) ordinals(dst []int32, coords Coords) ([]int32, bool) {
	if len(coords) != mt.nd {
		return dst, false
	}
	for i, id := range coords {
		mv := mt.dims[i].members[id]
		if mv == nil {
			return dst, false
		}
		dst = append(dst, mv.ord)
	}
	return dst, true
}

// locate returns the position of the live tuple at (coords, t).
func (mt *MappedTable) locate(coords Coords, t temporal.Instant) (int, bool) {
	var buf [8]int32
	ords, ok := mt.ordinals(buf[:0], coords)
	if !ok {
		return 0, false
	}
	return mt.find(tupleKey(ords, t), ords, t)
}

// each calls fn for every live tuple at or past position mark, in
// position order, until fn returns false.
func (mt *MappedTable) each(mark int, fn func(sh *factShard, j int) bool) {
	for si := mark >> shardShift; si < len(mt.shards); si++ {
		sh, j := mt.shards[si], 0
		if si == mark>>shardShift {
			j = mark & shardMask
		}
		for ; j < sh.n; j++ {
			if sh.sources[j] != 0 && !fn(sh, j) {
				return
			}
		}
	}
}

// tupleKey hashes the key (coords, t) of a mapped tuple for the key
// index: every member version ordinal, then the instant.
func tupleKey(coords []int32, t temporal.Instant) uint64 {
	h := keyHashSeed
	for _, o := range coords {
		h = h.word(uint64(uint32(o)))
	}
	return h.at(t)
}

// find returns the position of the live tuple at (coords, t), whose key
// hashes to h: the index's candidates are confirmed against the
// coordinates and time stored at their positions.
func (mt *MappedTable) find(h uint64, coords []int32, t temporal.Instant) (int, bool) {
	return mt.index.get(h, func(pos int) bool {
		sh, j := mt.shardAt(pos)
		return sh.times[j] == t && slices.Equal(sh.coords[j*mt.nd:(j+1)*mt.nd], coords)
	})
}

// writableShard returns shard si for a write into its slot j,
// privatizing it first when the slot may be read by another table: the
// shard carries another table's epoch (shared), or j lies
// below the prefix a borrowed tail shares.
func (mt *MappedTable) writableShard(si, j int) *factShard {
	sh := mt.shards[si]
	if sh.epoch != mt.epoch || j < sh.sharedBelow {
		sh = mt.privatize(si)
	}
	return sh
}

// newShard returns an empty shard owned by this table, its columns
// allocated at their full capacity, with a fresh claim on them.
func (mt *MappedTable) newShard() *factShard {
	sh := &factShard{
		epoch:   mt.epoch,
		claim:   new(atomic.Int32),
		coords:  make([]int32, 0, MappedShardSize*mt.nd),
		times:   make([]temporal.Instant, 0, MappedShardSize),
		values:  make([]float64, 0, MappedShardSize*mt.nm),
		cfs:     make([]Confidence, 0, MappedShardSize*mt.nm),
		sources: make([]int32, 0, MappedShardSize),
	}
	if mt.hasAvg {
		sh.avgN = make([]int32, 0, MappedShardSize*mt.nm)
	}
	return sh
}

// privatize copies shard si into a new shard this table owns. This is
// the whole copy-on-write cost of a delta writing into a shared slot:
// O(MappedShardSize) once per (table, shard), never per tuple.
func (mt *MappedTable) privatize(si int) *factShard {
	mt.ownShards()
	src := mt.shards[si]
	cp := mt.newShard()
	cp.n = src.n
	cp.claim.Store(int32(src.n))
	cp.coords = append(cp.coords, src.coords...)
	cp.times = append(cp.times, src.times...)
	cp.values = append(cp.values, src.values...)
	cp.cfs = append(cp.cfs, src.cfs...)
	cp.sources = append(cp.sources, src.sources...)
	if src.avgN != nil {
		cp.avgN = append(cp.avgN, src.avgN...)
	}
	// The copy has identical coords/times columns, so the zone map
	// carries over; the first append into the copy clears it.
	cp.zone.Store(src.zone.Load())
	mt.shards[si] = cp
	metShardsPrivatized.Inc()
	return cp
}

// ownShards gives the table a slice of shard headers of its own.
func (mt *MappedTable) ownShards() {
	if mt.shardsShared {
		mt.shards = slices.Clone(mt.shards)
		mt.shardsShared = false
	}
}

// borrow puts a header of this table's own over the columns of shard
// si, whose next slot this table has just claimed: the first n slots
// stay shared with the header it came from (sharedBelow), the slots
// from n on are this table's to append to, in place.
func (mt *MappedTable) borrow(si int) *factShard {
	mt.ownShards()
	src := mt.shards[si]
	sh := &factShard{
		epoch:       mt.epoch,
		n:           src.n,
		claim:       src.claim,
		sharedBelow: src.n,
		coords:      src.coords,
		times:       src.times,
		values:      src.values,
		cfs:         src.cfs,
		sources:     src.sources,
		avgN:        src.avgN,
	}
	mt.shards[si] = sh
	metShardsBorrowed.Inc()
	return sh
}

// tailShard returns the shard the next appended tuple lands in, its
// next slot claimed for this table. A full tail gets a fresh shard
// behind it. A partial tail is appended to in place when this table
// wins the claim on its next slot — borrowed first if the header is
// another table's — and privatized otherwise: the slot was taken by
// another generation.
func (mt *MappedTable) tailShard() *factShard {
	if len(mt.shards) == 0 || mt.shards[len(mt.shards)-1].n == MappedShardSize {
		mt.ownShards()
		mt.shards = append(mt.shards, mt.newShard())
	}
	si := len(mt.shards) - 1
	sh := mt.shards[si]
	if !sh.claim.CompareAndSwap(int32(sh.n), int32(sh.n+1)) {
		sh = mt.privatize(si)
		sh.claim.Add(1)
	} else if sh.epoch != mt.epoch {
		sh = mt.borrow(si)
	}
	return sh
}

// add folds one emitted tuple into the table. Values, confidences and
// coordinates are copied into the columnar shards; callers keep
// ownership of the passed slices.
func (mt *MappedTable) add(coords []int32, t temporal.Instant, values []float64, cfs []Confidence) {
	h := tupleKey(coords, t)
	nm := mt.nm
	i, ok := mt.find(h, coords, t)
	if !ok {
		mt.appendTuple(h, coords, t, values, cfs)
		return
	}
	// A merge: several source tuples present themselves on the same
	// target coordinates.
	j := i & shardMask
	sh := mt.writableShard(i>>shardShift, j)
	var avgN []int32
	if sh.avgN != nil {
		avgN = sh.avgN[j*nm : (j+1)*nm]
	}
	mergeValues(mt.measures, mt.alg, sh.values[j*nm:(j+1)*nm], avgN, sh.cfs[j*nm:(j+1)*nm], values, cfs)
	sh.sources[j]++
}

// mergeValues folds one more presentation into the tuple it lands on
// (Definition 11's f' is a function): values under the measure
// aggregate ⊕ — Avg through the contribution counts in avgN, nil when
// no measure is Avg — and confidences under ⊗cf. MappedTable.add and a
// scan's merge map share it.
func mergeValues(measures []Measure, alg ConfidenceAlgebra, vals []float64, avgN []int32, cfd []Confidence, values []float64, cfs []Confidence) {
	for k := range vals {
		if measures[k].Agg == Avg {
			vals[k], avgN[k] = foldAvg(vals[k], avgN[k], values[k])
		} else {
			vals[k] = foldPair(measures[k].Agg, vals[k], values[k])
		}
		cfd[k] = alg.Combine(cfd[k], cfs[k])
	}
}

// mergeMap holds the tuples a scan presents on targets that can merge,
// one per (target coordinates, instant), each folded under mergeValues
// in the order its presentations arrive, the tuples in first-sight
// order. Scans take one from mergeMaps and put it back emptied, so its
// index and columns keep their capacity from query to query.
type mergeMap struct {
	nd       int
	measures []Measure
	alg      ConfidenceAlgebra
	// last maps a key hash to 1 + the newest tuple with it; next chains
	// each tuple to 1 + the previous one with the same hash.
	last   map[uint64]int32
	next   []int32
	coords []int32
	times  []temporal.Instant
	values []float64
	cfs    []Confidence
	avgN   []int32
}

var mergeMaps = sync.Pool{New: func() any { return &mergeMap{last: make(map[uint64]int32)} }}

// newMergeMap returns an empty merge map from the pool.
func newMergeMap(nd int, measures []Measure, alg ConfidenceAlgebra) *mergeMap {
	m := mergeMaps.Get().(*mergeMap)
	m.nd, m.measures, m.alg = nd, measures, alg
	return m
}

// release empties the map and puts it back in the pool.
func (m *mergeMap) release() {
	clear(m.last)
	m.next, m.coords, m.times = m.next[:0], m.coords[:0], m.times[:0]
	m.values, m.cfs, m.avgN = m.values[:0], m.cfs[:0], m.avgN[:0]
	m.measures, m.alg = nil, nil
	mergeMaps.Put(m)
}

// add folds one presentation into the tuple at (coords, t), creating it
// on first sight. The slices are the caller's; add copies them.
func (m *mergeMap) add(coords []int32, t temporal.Instant, values []float64, cfs []Confidence) {
	nd, nm := m.nd, len(m.measures)
	h := tupleKey(coords, t)
	head := m.last[h]
	for x := int(head) - 1; x >= 0; x = int(m.next[x]) - 1 {
		if m.times[x] == t && slices.Equal(m.coords[x*nd:(x+1)*nd], coords) {
			mergeValues(m.measures, m.alg, m.values[x*nm:(x+1)*nm], m.avgN[x*nm:(x+1)*nm], m.cfs[x*nm:(x+1)*nm], values, cfs)
			return
		}
	}
	m.next = append(m.next, head)
	m.last[h] = int32(len(m.times)) + 1
	m.coords = append(m.coords, coords...)
	m.times = append(m.times, t)
	m.values = append(m.values, values...)
	m.cfs = append(m.cfs, cfs...)
	for _, v := range values {
		m.avgN = append(m.avgN, avgCount(v))
	}
}

// appendTuple stores a tuple whose key, hashed to h, the table does not
// hold, as one source in a fresh slot at the end.
func (mt *MappedTable) appendTuple(h uint64, coords []int32, t temporal.Instant, values []float64, cfs []Confidence) {
	sh := mt.tailShard()
	sh.coords = append(sh.coords, coords...)
	sh.times = append(sh.times, t)
	sh.values = append(sh.values, values...)
	sh.cfs = append(sh.cfs, cfs...)
	sh.sources = append(sh.sources, 1)
	if mt.hasAvg {
		for _, v := range values {
			sh.avgN = append(sh.avgN, avgCount(v))
		}
	}
	sh.n++
	// Appends change the coords/times columns the zone map summarizes:
	// drop a stale zone, and seal a freshly filled shard with its final
	// zone (full shards never change again under this table's epoch).
	if sh.n == MappedShardSize {
		sh.zone.Store(buildZone(sh, mt.nd))
	} else if sh.zone.Load() != nil {
		sh.zone.Store(nil)
	}
	mt.index.put(h, mt.n)
	mt.n++
	mt.countOrds(coords, t, 1)
}

// ordStat is what a table knows of one member version ordinal at one
// coordinate position: live tuples hold it, and while live > 0 every
// one of them lies within instants. A retraction leaves instants as
// they are, so they may cover more than the live tuples, never less.
type ordStat struct {
	live     int32
	instants temporal.Interval
}

// ordChunkSize is the number of ordinals per chunk of a table's ordinal
// stats: what a write into a shared chunk copies.
const ordChunkSize = 128

// ordChunk holds the stats of ordChunkSize consecutive ordinals. It is
// writable only by the table whose epoch it carries.
type ordChunk struct {
	epoch uint64
	stats [ordChunkSize]ordStat
}

// ordStat returns the stats of ordinal o at coordinate position i.
func (mt *MappedTable) ordStat(i int, o int32) ordStat {
	if i >= len(mt.ords) {
		return ordStat{}
	}
	chunks, ci := mt.ords[i], int(o)/ordChunkSize
	if ci >= len(chunks) || chunks[ci] == nil {
		return ordStat{}
	}
	return chunks[ci].stats[int(o)%ordChunkSize]
}

// countOrds records that a tuple at instant t holding the given
// ordinals was added (delta 1) or removed (delta -1), copying a chunk
// another table may read before writing into it.
func (mt *MappedTable) countOrds(ords []int32, t temporal.Instant, delta int32) {
	if mt.ordShared || mt.ords == nil {
		own := make([][]*ordChunk, mt.nd)
		for i, chunks := range mt.ords {
			own[i] = slices.Clone(chunks)
		}
		mt.ords, mt.ordShared = own, false
	}
	for i, o := range ords {
		ci := int(o) / ordChunkSize
		for len(mt.ords[i]) <= ci {
			mt.ords[i] = append(mt.ords[i], nil)
		}
		c := mt.ords[i][ci]
		if c == nil || c.epoch != mt.epoch {
			own := &ordChunk{epoch: mt.epoch}
			if c != nil {
				own.stats = c.stats
			}
			mt.ords[i][ci], c = own, own
		}
		st := &c.stats[int(o)%ordChunkSize]
		switch {
		case delta > 0 && st.live == 0:
			st.instants = temporal.Between(t, t)
		case delta > 0:
			st.instants = st.instants.Hull(temporal.Between(t, t))
		}
		st.live += delta
	}
}

// avgCount is the Avg contribution count of one source value: NaN, the
// absent value, contributes nothing.
func avgCount(v float64) int32 {
	if math.IsNaN(v) {
		return 0
	}
	return 1
}

// foldPair folds two values under an aggregate kind, with NaN treated as
// the absent value. Avg folding during materialization goes through
// foldAvg instead, which carries contribution counts.
func foldPair(kind AggKind, a, b float64) float64 {
	aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
	switch {
	case aNaN && bNaN:
		return math.NaN()
	case aNaN:
		if kind == Count {
			return 1
		}
		return b
	case bNaN:
		if kind == Count {
			return 1
		}
		return a
	}
	switch kind {
	case Sum:
		return a + b
	case Count:
		return a + b // both sides are counts of folded source tuples
	case Min:
		return math.Min(a, b)
	case Max:
		return math.Max(a, b)
	case Avg:
		// Two raw values without counts degrade to their midpoint.
		return (a + b) / 2
	}
	return math.NaN()
}

// foldAvg folds one new contribution b into a running mean a carrying
// na non-NaN contributions, returning the new mean and count. Unlike
// the old pairwise (a+b)/2, the running count makes a 3-way merge the
// true mean of its sources regardless of fold order.
func foldAvg(a float64, na int32, b float64) (mean float64, n int32) {
	aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
	switch {
	case aNaN && bNaN:
		return math.NaN(), na
	case aNaN:
		return b, 1
	case bNaN:
		return a, na
	}
	n = na + 1
	return (a*float64(na) + b) / float64(n), n
}

// MultiVersionFactTable materializes the function f' of Definition 11:
// for every temporal mode of presentation, the source data presented in
// that mode with confidence factors. Queries never read it — they
// present the fact store through resolution tables (see
// Schema.ExecuteContext) — but the reproduction tier does: the paper's
// relational renderings (warehouse, cube) and AggregateMember. The
// restriction to tcm is the fact table itself, as it stood when the
// handle was taken; a version mode is built cold from that table on
// every call and never cached. A mutation of the schema drops its
// handle, so a handle obtained before it keeps its snapshot of the
// facts.
type MultiVersionFactTable struct {
	schema *Schema
	facts  *MappedTable
	builds atomic.Int64
}

// MultiVersion returns the schema's MultiVersion Fact Table handle,
// taken afresh after every mutation: InsertFact, RetractFact, AddMapping
// and every dimension mutation through the registered API (AddVersion,
// AddRelationship, SetEnd, EndRelationship — i.e. all evolution
// operators) drop it.
func (s *Schema) MultiVersion() *MultiVersionFactTable {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mvftCache == nil {
		s.mvftCache = &MultiVersionFactTable{schema: s, facts: s.facts.table()}
	}
	return s.mvftCache
}

// Mode returns the restriction of the MultiVersion Fact Table to one
// temporal mode of presentation.
func (mv *MultiVersionFactTable) Mode(m Mode) (*MappedTable, error) {
	return mv.ModeContext(context.Background(), m)
}

// ModeContext is Mode with cancellation: a version mode's build checks
// ctx inside its per-fact loop.
func (mv *MultiVersionFactTable) ModeContext(ctx context.Context, m Mode) (*MappedTable, error) {
	if m.Kind == TCMKind {
		return mv.facts, nil
	}
	mt, err := mv.schema.mapFacts(ctx, mv.facts, m)
	if err == nil {
		mv.builds.Add(1)
	}
	return mt, err
}

// Materializations reports how many version modes this handle has
// built.
func (mv *MultiVersionFactTable) Materializations() int64 { return mv.builds.Load() }

// All materializes every mode of the schema — the full f' — one mode
// after another.
func (mv *MultiVersionFactTable) All() (map[string]*MappedTable, error) {
	modes := mv.schema.Modes()
	out := make(map[string]*MappedTable, len(modes))
	for _, m := range modes {
		t, err := mv.Mode(m)
		if err != nil {
			return nil, err
		}
		out[m.String()] = t
	}
	return out, nil
}

// cancelCheckStride is how many facts a mapping or aggregation loop
// processes between context checks: frequent enough that cancellation
// is prompt even on modest tables, rare enough to stay off the
// per-fact hot path.
const cancelCheckStride = 256

// mapFacts presents the live tuples of the fact table src in a version
// mode (tcm is the fact table itself and is never built), in tuple
// order, through the mode's resolution tables (presenter) — the code a
// query's scan presents with — folding every emission into a fresh
// table: tuples landing on identical target coordinates merge under
// mergeValues, as a scan's merge map does. Tuples no resolution reaches
// count as Dropped.
func (s *Schema) mapFacts(ctx context.Context, src *MappedTable, m Mode) (*MappedTable, error) {
	switch {
	case m.Kind != VersionKind:
		return nil, fmt.Errorf("core: unknown mode kind %d", m.Kind)
	case m.Version == nil:
		return nil, fmt.Errorf("core: version mode without structure version")
	}
	out := newMappedTable(s, m, src.Len())
	pr := newPresenter(s.resolveTables(m.Version), nil, out.nm, s.alg, s.mappingGraph().identity)
	nd, nm, steps := out.nd, out.nm, 0
	for _, sh := range src.shards {
		for j := 0; j < sh.n; j++ {
			if steps%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("core: materialization cancelled: %w", err)
				}
			}
			steps++
			if sh.sources[j] == 0 {
				continue // tombstoned by a retraction
			}
			if !pr.start(sh.coords[j*nd:(j+1)*nd], sh.values[j*nm:(j+1)*nm]) {
				out.Dropped++
				continue
			}
			for pr.next() {
				out.add(pr.coords, sh.times[j], pr.values, pr.cfs)
			}
		}
	}
	return out, nil
}
