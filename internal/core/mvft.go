package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
// size trades swap granularity (a delta privatizes whole shards)
// against sharing granularity (a warm clone copies one header per
// shard): at 4096 tuples a 100k-fact mode is ~25 headers per swap.
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
// aggregation scans are cache-dense and a warm clone shares untouched
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
// temporal mode: f'(·, ·, tmp).
//
// A table is single-writer while it is built and read-only once
// published. Incremental maintenance (Schema.WarmFrom) never mutates a
// published table: it takes a copy-on-write clone — shared shards and
// shared frozen index layers — and folds the fact delta into the clone.
// Appends borrow the shared partial tail shard (a header of the clone's
// own over the same columns, after claiming the next slot); a merge,
// tombstone or subtraction into a shared slot privatizes that one shard
// (per-shard epochs and sharedBelow, see writableShard).
type MappedTable struct {
	Mode   Mode
	shards []*factShard
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
	// against the coordinates and time stored there. A warm clone shares
	// its frozen layers with the source table; a retraction tombstones
	// the key there, since the slot itself stays put (see keyIndex).
	index keyIndex
	// dead counts tombstoned tuples: slots whose sources count was
	// zeroed by a retraction. The slot itself stays (positional
	// indexing over fixed-size shards must not shift) but every view
	// and scan skips it.
	dead int
	// Dropped counts source facts that could not be presented in this
	// mode at all: no chain of mapping relationships reaches any member
	// version of the target structure version ("impossible cross-points"
	// in the paper's grid rendering, §5.2).
	Dropped int

	alg      ConfidenceAlgebra
	measures []Measure
	hasAvg   bool

	// graph and leafIn cache the materialization context of a version
	// mode (the mapping-relationship graph snapshot and per-dimension
	// acceptable leaf sets); mapFacts sets both on every version-mode
	// table, and cloneForWarm carries them. Warm retention guarantees
	// both are still valid on the retained clone — same mapping set,
	// same structural signature — so delta folds reuse them instead of
	// rebuilding O(structure) state per swap.
	graph  *mappingGraph
	leafIn []map[MVID]bool

	// view caches the row-oriented compatibility view built by Facts().
	// Built lazily after the table is published; a table under
	// construction must not be viewed.
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
	out := make([]*MappedFact, live)
	i := 0
	for _, sh := range mt.shards {
		for j := 0; j < sh.n; j++ {
			if sh.sources[j] == 0 {
				continue // tombstoned by a retraction
			}
			mt.fillView(&arena[i], sh, j, coords[i*nd:(i+1)*nd:(i+1)*nd])
			out[i] = &arena[i]
			i++
		}
	}
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
	if len(coords) != mt.nd {
		return nil, false
	}
	ords := make([]int32, mt.nd)
	for i, id := range coords {
		mv := mt.dims[i].members[id]
		if mv == nil {
			return nil, false
		}
		ords[i] = mv.ord
	}
	i, ok := mt.find(tupleKey(ords, t), ords, t)
	if !ok {
		return nil, false
	}
	f := &MappedFact{}
	sh, j := mt.shardAt(i)
	mt.fillView(f, sh, j, make(Coords, mt.nd))
	return f, true
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

// borrow puts a header of this table's own over the columns of shard
// si, whose next slot this table has just claimed: the first n slots
// stay shared with the header it came from (sharedBelow), the slots
// from n on are this table's to append to, in place.
func (mt *MappedTable) borrow(si int) *factShard {
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
	if i, ok := mt.find(h, coords, t); ok {
		// A merge: several source tuples present themselves on the same
		// target coordinates. Fold values with the measure aggregate ⊕
		// and confidences with ⊗cf (Definition 12).
		j := i & shardMask
		sh := mt.writableShard(i>>shardShift, j)
		vals := sh.values[j*nm : (j+1)*nm]
		cfd := sh.cfs[j*nm : (j+1)*nm]
		for k := range vals {
			if mt.measures[k].Agg == Avg {
				vals[k], sh.avgN[j*nm+k] = foldAvg(vals[k], sh.avgN[j*nm+k], values[k])
			} else {
				vals[k] = foldPair(mt.measures[k].Agg, vals[k], values[k])
			}
			cfd[k] = mt.alg.Combine(cfd[k], cfs[k])
		}
		sh.sources[j]++
		return
	}
	sh := mt.tailShard()
	sh.coords = append(sh.coords, coords...)
	sh.times = append(sh.times, t)
	sh.values = append(sh.values, values...)
	sh.cfs = append(sh.cfs, cfs...)
	sh.sources = append(sh.sources, 1)
	if mt.hasAvg {
		for _, v := range values {
			var c int32
			if !math.IsNaN(v) {
				c = 1
			}
			sh.avgN = append(sh.avgN, c)
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

// modeEntry is the singleflight slot for one mode's materialization:
// the caller that creates the entry runs mapFacts and closes done;
// every concurrent and later caller waits on done and shares the
// result. Waiters may abandon the wait when their own context is
// cancelled; a failed build is evicted from the cache so the next
// caller retries instead of being served a stale error.
type modeEntry struct {
	done  chan struct{}
	table *MappedTable
	err   error
}

// MultiVersionFactTable materializes the function f' of Definition 11:
// for every temporal mode of presentation, the source data presented in
// that mode with confidence factors. Restrictions per mode are computed
// lazily, once per mode (concurrent callers share a single
// materialization), and cached; the cache lives until the schema is
// mutated (the schema drops its reference on Invalidate, so a handle
// obtained before the mutation keeps serving its consistent snapshot).
type MultiVersionFactTable struct {
	schema *Schema
	mu     sync.Mutex
	byMode map[string]*modeEntry
	builds atomic.Int64
	deltas atomic.Int64
}

// MultiVersion returns the schema's MultiVersion Fact Table. The table
// is cached on the schema and recomputed lazily after mutation.
// InsertFact and every dimension mutation through the registered API
// (AddVersion, AddRelationship, SetEnd, EndRelationship — i.e. all
// evolution operators) invalidate the cache automatically.
func (s *Schema) MultiVersion() *MultiVersionFactTable {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mvftCache == nil {
		s.mvftCache = &MultiVersionFactTable{schema: s, byMode: make(map[string]*modeEntry)}
	}
	return s.mvftCache
}

// finishedMode is one completed, successful materialization of a
// schema's MVFT cache.
type finishedMode struct {
	key   string
	table *MappedTable
}

// finishedModes lists the completed, successful materializations of
// the schema's MVFT cache, sorted by mode key. It neither triggers a
// materialization nor waits on one in flight, and a cold cache lists
// nothing: what it returns is what a clone can take over.
func (s *Schema) finishedModes() []finishedMode {
	s.mu.Lock()
	mv := s.mvftCache
	s.mu.Unlock()
	if mv == nil {
		return nil
	}
	var out []finishedMode
	mv.mu.Lock()
	for k, e := range mv.byMode {
		select {
		case <-e.done:
			if e.err == nil && e.table != nil {
				out = append(out, finishedMode{k, e.table})
			}
		default: // still building
		}
	}
	mv.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// Mode returns the restriction of the MultiVersion Fact Table to one
// temporal mode of presentation. Racing callers on the same mode do not
// duplicate work: exactly one materializes, the rest block on it.
func (mv *MultiVersionFactTable) Mode(m Mode) (*MappedTable, error) {
	return mv.ModeContext(context.Background(), m)
}

// ModeContext is Mode with cancellation: the materializing caller
// checks ctx inside the per-fact mapping loops, and waiting callers
// stop waiting when their own ctx is cancelled (the build itself keeps
// the builder's context). A build abandoned on cancellation is evicted
// from the cache, so the mode re-materializes cleanly on the next call.
func (mv *MultiVersionFactTable) ModeContext(ctx context.Context, m Mode) (*MappedTable, error) {
	mt, _, err := mv.modeContext(ctx, m)
	return mt, err
}

// modeContext additionally reports whether the table was served from
// cache (true) or built by this call (false).
func (mv *MultiVersionFactTable) modeContext(ctx context.Context, m Mode) (*MappedTable, bool, error) {
	key := m.String()
	for {
		mv.mu.Lock()
		e, ok := mv.byMode[key]
		if !ok {
			e = &modeEntry{done: make(chan struct{})}
			mv.byMode[key] = e
			mv.mu.Unlock()
			metModeCacheMisses.Inc()
			mv.builds.Add(1)
			start := time.Now()
			e.table, e.err = mv.schema.mapFacts(ctx, m)
			close(e.done)
			if e.err != nil {
				// Never cache a failure: evict the entry so a later call
				// retries (in particular, a build cancelled by one
				// client's disconnect must not poison the mode).
				mv.mu.Lock()
				if mv.byMode[key] == e {
					delete(mv.byMode, key)
				}
				mv.mu.Unlock()
				if isCancellation(e.err) {
					metQueryCancelled.Inc()
				}
				return nil, false, e.err
			}
			metMaterializeSeconds.With(m.String()).Observe(time.Since(start).Seconds())
			metMaterializeDropped.Add(int64(e.table.Dropped))
			return e.table, false, nil
		}
		mv.mu.Unlock()
		metModeCacheHits.Inc()
		select {
		case <-e.done:
			if e.err != nil && isCancellation(e.err) && ctx.Err() == nil {
				// The builder was cancelled but this caller is still
				// live: retry (the failed entry has been evicted).
				continue
			}
			return e.table, true, e.err
		case <-ctx.Done():
			metQueryCancelled.Inc()
			return nil, true, fmt.Errorf("core: materialization wait cancelled: %w", ctx.Err())
		}
	}
}

// isCancellation reports whether err stems from context cancellation
// or deadline expiry.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Materializations reports how many mapFacts runs this table has
// performed — an observability hook that also lets tests assert the
// singleflight contract (one build per mode, however many callers).
func (mv *MultiVersionFactTable) Materializations() int64 { return mv.builds.Load() }

// DeltaApplies reports how many retained modes had a fact delta folded
// in by Schema.WarmFrom instead of a full rematerialization. Warm
// retention never counts as a Materialization.
func (mv *MultiVersionFactTable) DeltaApplies() int64 { return mv.deltas.Load() }

// All materializes every mode of the schema — the full f' — one mode
// after another. The returned map is a snapshot copy, safe to iterate
// concurrently with queries.
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

// emitFunc receives one presented tuple, its coordinates as member
// version ordinals. The slices are the emitter's scratch, valid only
// during the call: MappedTable.add copies them into its shards, a
// collector copies what it keeps.
type emitFunc func(coords []int32, t temporal.Instant, values []float64, cfs []Confidence)

// mapShard presents a run of facts in a version mode, in fact order,
// handing every emitted tuple to emit: each source coordinate resolves
// through the mapping-relationship graph into the leaf member versions
// of leafIn, values flow through the composed mapping functions and
// confidences through ⊗cf, and a fact fans out to one tuple per
// combination of its dimensions' resolutions (splits). It returns how
// many facts no resolution reaches, and stops with an error, its run
// half emitted, when ctx is cancelled.
func (s *Schema) mapShard(ctx context.Context, graph *mappingGraph, leafIn []map[MVID]bool, facts []*Fact, emit emitFunc) (dropped int, err error) {
	nd, nm := len(s.dims), len(s.measures)
	// Resolutions are deterministic per source member version; cache
	// them for the run, each with its target's ordinal.
	resCache := make([]map[MVID][]resolution, nd)
	for i := range resCache {
		resCache[i] = make(map[MVID][]resolution)
	}
	perDim := make([][]resolution, nd)
	combo := make([]int, nd)
	coords := make([]int32, nd)
	values := make([]float64, nm)
	cfs := make([]Confidence, nm)
	for fi, f := range facts {
		if fi > 0 && fi%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return dropped, fmt.Errorf("core: materialization cancelled: %w", err)
			}
		}
		ok := true
		for i, id := range f.Coords {
			rs, cached := resCache[i][id]
			if !cached {
				set := leafIn[i]
				rs = graph.resolve(id, func(x MVID) bool { return set[x] })
				for k := range rs {
					rs[k].ord = s.dims[i].members[rs[k].target].ord
				}
				resCache[i][id] = rs
			}
			if len(rs) == 0 {
				ok = false
				break
			}
			perDim[i] = rs
		}
		if !ok {
			dropped++
			continue
		}
		// Cartesian product across dimensions (splits fan out). Each
		// combination emits one tuple.
		for i := range combo {
			combo[i] = 0
		}
		for {
			copy(values, f.Values)
			for k := range cfs {
				cfs[k] = SourceData
			}
			for i := 0; i < nd; i++ {
				r := perDim[i][combo[i]]
				coords[i] = r.ord
				for k := 0; k < nm; k++ {
					v, okv := r.per[k].Fn.Map(values[k])
					if !okv {
						v = math.NaN()
					}
					values[k] = v
					cfs[k] = s.alg.Combine(cfs[k], r.per[k].CF)
				}
			}
			emit(coords, f.Time, values, cfs)
			// Advance the product counter.
			i := 0
			for ; i < len(combo); i++ {
				combo[i]++
				if combo[i] < len(perDim[i]) {
					break
				}
				combo[i] = 0
			}
			if i == len(combo) {
				break
			}
		}
	}
	return dropped, nil
}

// foldTCM presents a run of facts in tcm, in fact order, handing each to
// emit as it is: its coordinates translated to ordinals, source values,
// every confidence SourceData (the paper's f'|tcm = f × {sd}^m). It
// stops with an error, its run half emitted, when ctx is cancelled.
func (s *Schema) foldTCM(ctx context.Context, facts []*Fact, emit emitFunc) error {
	sd := make([]Confidence, len(s.measures))
	for k := range sd {
		sd[k] = SourceData
	}
	coords := make([]int32, len(s.dims))
	for i, f := range facts {
		if i > 0 && i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: materialization cancelled: %w", err)
			}
		}
		for k, id := range f.Coords {
			coords[k] = s.dims[k].members[id].ord
		}
		emit(coords, f.Time, f.Values, sd)
	}
	return nil
}

// mapInto presents facts in out's mode and folds every emitted tuple
// straight into out, in fact order. Shared by cold materialization (all
// facts) and warm delta application (the appended suffix) — the add
// sequence, and with it every floating-point bit, is identical either
// way. On cancellation out is left half folded; callers discard it.
func (s *Schema) mapInto(ctx context.Context, out *MappedTable, facts []*Fact) error {
	if out.Mode.Kind == TCMKind {
		return s.foldTCM(ctx, facts, out.add)
	}
	dropped, err := s.mapShard(ctx, out.graph, out.leafIn, facts, out.add)
	out.Dropped += dropped
	return err
}

// versionLeafSets builds, per dimension, the acceptable mapping targets
// for a structure version: the leaf member versions of D at the
// version's instant. Built once per materialization, read-only
// afterwards.
func (s *Schema) versionLeafSets(sv *StructureVersion) []map[MVID]bool {
	leafIn := make([]map[MVID]bool, len(s.dims))
	for i, d := range s.dims {
		leafIn[i] = make(map[MVID]bool)
		for _, mv := range d.LeavesAt(sv.readAt(i)) {
			leafIn[i][mv.ID] = true
		}
	}
	return leafIn
}

// mapFacts presents the temporally consistent fact table in the given
// mode. In tcm the result is the source data tagged sd (the paper's
// f'|tcm = f × {sd}^m). In a version mode every source coordinate is
// resolved into the leaf member versions of the target structure
// version through the mapping-relationship graph; values flow through
// the composed mapping functions, confidences through ⊗cf; tuples
// landing on identical target coordinates merge under ⊕ and ⊗cf.
//
// The graph and leaf sets are cached on the table so warm delta folds
// after a clone-swap reuse them.
func (s *Schema) mapFacts(ctx context.Context, m Mode) (*MappedTable, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: materialization cancelled: %w", err)
	}
	switch m.Kind {
	case TCMKind:
	case VersionKind:
		if m.Version == nil {
			return nil, fmt.Errorf("core: version mode without structure version")
		}
	default:
		return nil, fmt.Errorf("core: unknown mode kind %d", m.Kind)
	}
	facts := s.facts.Facts()
	out := newMappedTable(s, m, len(facts))
	if m.Kind == VersionKind {
		out.graph = newMappingGraph(s.mappings, len(s.measures), s.alg)
		out.leafIn = s.versionLeafSets(m.Version)
	}
	if err := s.mapInto(ctx, out, facts); err != nil {
		return nil, err
	}
	return out, nil
}
