package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"

	"mvolap/internal/temporal"
)

// Coords addresses one cell of the fact table: one leaf member version
// per dimension, in schema dimension order.
type Coords []MVID

// Equal reports coordinate equality.
func (c Coords) Equal(other Coords) bool {
	if len(c) != len(other) {
		return false
	}
	for i := range c {
		if c[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone copies the coordinate vector.
func (c Coords) Clone() Coords {
	out := make(Coords, len(c))
	copy(out, c)
	return out
}

// Fact is one tuple of the Temporally Consistent Fact Table
// (Definition 5): leaf member versions valid at Time, with one value per
// measure. The fact table does not store Facts; it hands them out as
// views of its columns.
type Fact struct {
	Coords Coords
	Time   temporal.Instant
	Values []float64
}

// MappedShardSize is the number of tuples per storage shard of the fact
// table. Every shard except the last is exactly full, so tuple i lives
// in shard i/MappedShardSize at offset i%MappedShardSize. The size
// trades swap granularity (a write privatizes whole shards) against
// sharing granularity (a clone copies one header per shard): at 4096
// tuples a 100k-fact store is ~25 headers per swap.
const MappedShardSize = 4096

const (
	shardShift = 12 // log2(MappedShardSize)
	shardMask  = MappedShardSize - 1
	// shardWords is the length of a shard's live bitmap.
	shardWords = MappedShardSize / 64
	// narrowSpan is the number of instants a narrow instant column
	// spans: its 16-bit offsets from the shard's base.
	narrowSpan = 1 << 16
)

// shardEpochCounter issues table ownership epochs; every table takes a
// fresh one, so a shard carrying another table's epoch is shared.
var shardEpochCounter atomic.Uint64

// factShard is one fixed-size block of facts in struct-of-arrays
// layout: parallel columns instead of per-tuple structs, so the scan is
// cache-dense and a clone shares untouched shards wholesale. A
// factShard is a header over the columns: it is writable only by the
// table whose epoch it carries, and only at or past sharedBelow; every
// other write copies the columns first (privatize). Several headers —
// one per generation that appended to a partial tail — may sit over the
// same columns, each seeing its own prefix of them.
type factShard struct {
	epoch uint64
	n     int
	// claim counts the slots of the columns some header has spoken for;
	// every header over the same columns holds the same counter, and a
	// table appends at slot n in place only after moving it n → n+1
	// (tailShard).
	claim *atomic.Int32
	// sharedBelow is the prefix of the columns this header shares with
	// the header it was borrowed from (see FactTable.borrow): slots
	// below it are read by other generations, so writing their columns
	// privatizes. The live bitmap is the header's own at every slot.
	sharedBelow int
	// coords holds n*nd member version ordinals (MemberVersion.ord in
	// the table's dimension, position by position), and the value
	// column n*nm entries. No column holds a pointer. Shards a table
	// creates or privatizes have columns of capacity MappedShardSize
	// tuples, so appends never reallocate them. A slot's columns are
	// written once, by the append that fills it.
	coords []int32
	// The instant column, read through at: while the shard is narrow,
	// slot j's instant is base + offs[j], in wrapping int64 arithmetic,
	// and wide is nil; once widened, wide holds every slot's instant and
	// offs is nil. The base is fixed when the columns are made, half a
	// span below their first instant, and every header over the same
	// columns carries it; an append outside the narrow window widens the
	// column (widen).
	base temporal.Instant
	offs []uint16
	wide []temporal.Instant
	// The value column, read through valuesAt: while the shard is
	// narrow, ints holds every value, each one an integer that narrow
	// holds exactly, and values is nil; once widened, values holds them
	// as float64 and ints is nil. A shard starts narrow; an append of a
	// value ints cannot hold widens it (widen).
	ints   []int16
	values []float64
	// live has bit j set while slot j holds a fact: an append sets it, a
	// retraction clears it. Unlike the columns it belongs to the header
	// alone (borrow copies it), so a write into it never touches a word
	// another generation reads.
	live *[shardWords]uint64
	// zone caches the shard's zone map (min/max time, per-dimension
	// distinct coordinates). Sealed when the shard fills, dropped by
	// appends and tombstones, carried across privatize (the copy has
	// identical coordinates, instants and live bits), rebuilt lazily by
	// the query scan otherwise.
	zone atomic.Pointer[shardZone]
}

// cloneLive returns a copy of a live bitmap.
func cloneLive(live *[shardWords]uint64) *[shardWords]uint64 {
	cp := *live
	return &cp
}

// isLive reports whether slot j holds a fact.
func (sh *factShard) isLive(j int) bool { return sh.live[j>>6]&(1<<(uint(j)&63)) != 0 }

// at returns the instant of slot j: the one accessor of the instant
// column outside the scan's loop (scanShard), which reads the column
// itself.
func (sh *factShard) at(j int) temporal.Instant {
	if sh.wide != nil {
		return sh.wide[j]
	}
	return sh.base + temporal.Instant(sh.offs[j])
}

// holds reports whether the instant column can take t as it is: a wide
// column takes any instant, a narrow one those in its window.
func (sh *factShard) holds(t temporal.Instant) bool {
	return sh.wide != nil || uint64(t-sh.base) < narrowSpan
}

// narrow returns v as an int16 when that holds it exactly: an integer
// in int16's range, and not −0. NaN, ±Inf, −0 and fractions have no
// narrow form. The range is tested before converting, since Go leaves
// an out-of-range conversion to the implementation.
func narrow(v float64) (int16, bool) {
	if !(v >= math.MinInt16 && v <= math.MaxInt16) {
		return 0, false
	}
	i := int16(v)
	return i, float64(i) == v && (i != 0 || !math.Signbit(v))
}

// fits reports whether the value column can take values as they are: a
// float64 column takes any value, a narrow one those narrow holds.
func (sh *factShard) fits(values []float64) bool {
	if sh.values != nil {
		return true
	}
	for _, v := range values {
		if _, ok := narrow(v); !ok {
			return false
		}
	}
	return true
}

// valuesAt copies the values of slot j, one per measure, into dst and
// returns it: the one reader of the value column outside the scan's
// fold (foldRows) and the codec's integer path (appendVarints), which
// read the column themselves.
func (sh *factShard) valuesAt(dst []float64, j int) []float64 {
	nm := len(dst)
	if sh.values != nil {
		copy(dst, sh.values[j*nm:(j+1)*nm])
		return dst
	}
	for k, v := range sh.ints[j*nm : (j+1)*nm] {
		dst[k] = float64(v)
	}
	return dst
}

// appendValues appends a tuple's values, which the value column must
// fit (fits).
func (sh *factShard) appendValues(values []float64) {
	if sh.values != nil {
		sh.values = append(sh.values, values...)
		return
	}
	for _, v := range values {
		i, _ := narrow(v)
		sh.ints = append(sh.ints, i)
	}
}

// wideInstants returns a copy of the shard's instants as a wide column.
func (sh *factShard) wideInstants() []temporal.Instant {
	wide := make([]temporal.Instant, sh.n, MappedShardSize)
	if sh.wide != nil {
		copy(wide, sh.wide)
		return wide
	}
	for j, o := range sh.offs {
		wide[j] = sh.base + temporal.Instant(o)
	}
	return wide
}

// wideValues returns a copy of the shard's values, nm a tuple, as a
// float64 column.
func (sh *factShard) wideValues(nm int) []float64 {
	values := make([]float64, sh.n*nm, MappedShardSize*nm)
	if sh.values != nil {
		copy(values, sh.values)
		return values
	}
	for k, v := range sh.ints {
		values[k] = float64(v)
	}
	return values
}

// FactTable is the Temporally Consistent Fact Table f of Definition 5: a
// partial function from leaf member versions and time to measure values.
// It holds f and nothing else: member version ordinals, instants and
// values in sharded columns, a live bitmap per shard, and one hashed key
// index checked against the columns. Definition 11's f' is presented
// from it, never stored: a query reads tcm as it is (f'|tcm = f × {sd}ᵐ)
// and a version mode through resolution tables (Schema.ExecuteContext),
// and Schema.Present lists a mode's tuples. A tuple's position is its
// insertion ordinal. A slot's columns are written once, by its append:
// a Retract clears the slot's live bit, and a replacing Insert is a
// retraction plus an append, so a corrected fact moves to the end of
// position order. Once more than half of the slots of its shards are
// dead, the table re-appends its live tuples into fresh shards
// (compact).
//
// A table is single-writer while it is built and read-only once
// published. A write never mutates a published table: it takes a
// copy-on-write clone — shared shards and shared frozen index layers —
// and writes the clone. An append borrows the shared partial tail shard
// (a header of the clone's own over the same columns, after claiming
// the next slot; tailShard), and a tombstone takes such a header,
// without the claim, over the shard whose live bit it clears
// (tombstone).
type FactTable struct {
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
	dims []*Dimension
	// index maps a tuple key to its global position: a 4-byte position
	// and a 1-byte tag of the key's hash a slot, every hit checked
	// against the live bit, coordinates and time stored there, and every
	// table it grows or merges placed again by the hashes of these
	// columns (hashAt). A clone shares its frozen layers with the source
	// table; a retraction writes nothing there, since the cleared live
	// bit already rejects the slot's entry (see keyIndex).
	index keyIndex
	// dead counts tombstoned tuples: slots whose live bit a retraction
	// cleared. The slot itself stays (positional indexing over
	// fixed-size shards must not shift) but every view and scan skips it,
	// until a compaction drops it (compact).
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
	// written is the hull of the instants this table inserted, replaced
	// or tombstoned since it was made, when wrote says there was one: a
	// clone starts with none (Schema.Delta).
	written temporal.Interval
	wrote   bool
}

// newFactTable returns an empty fact table over the schema's dimensions
// and measures.
func newFactTable(s *Schema) *FactTable {
	return &FactTable{
		epoch: shardEpochCounter.Add(1),
		nd:    len(s.dims),
		nm:    len(s.measures),
		dims:  s.dims,
	}
}

// Measures reports the number of measures per fact.
func (ft *FactTable) Measures() int { return ft.nm }

// Len reports the number of stored facts (tombstoned slots are
// excluded).
func (ft *FactTable) Len() int { return ft.n - ft.dead }

// KeyIndexWork reports the key-index maintenance the table has paid
// since it was cloned: layers sealed, and entries rewritten by layer
// merges and flattens — the one part of a write that is not O(batch),
// so a merged count in the order of the table size names a flatten.
func (ft *FactTable) KeyIndexWork() (sealed, merged int) { return ft.index.sealed, ft.index.merged }

// Bytes reports the table's footprint, computed from the lengths and
// capacities it reaches: columns is the shard headers with their
// columns and live bitmaps, index the key index's tables, stats the
// ordinal stats' chunk lists and chunks. Shards, index layers and
// chunks the table shares with other generations count in full.
func (ft *FactTable) Bytes() (columns, index, stats int) {
	columns = 8 * cap(ft.shards)
	for _, sh := range ft.shards {
		columns += int(unsafe.Sizeof(*sh)+unsafe.Sizeof(*sh.claim)) +
			4*cap(sh.coords) + 2*cap(sh.offs) + 8*cap(sh.wide) + 2*cap(sh.ints) + 8*cap(sh.values) + 8*len(sh.live)
	}
	stats = int(unsafe.Sizeof(ft.ords)) * cap(ft.ords)
	for _, chunks := range ft.ords {
		stats += 8 * cap(chunks)
		for _, c := range chunks {
			if c != nil {
				stats += int(unsafe.Sizeof(*c))
			}
		}
	}
	return columns, ft.index.bytes(), stats
}

// Insert adds a fact. Inserting at existing coordinates and time
// replaces the previous values (the fact table is a function): the old
// tuple is tombstoned and the new one appended, at the end of position
// order. Every coordinate must name a member version of its dimension.
func (ft *FactTable) Insert(coords Coords, t temporal.Instant, values ...float64) error {
	if len(values) != ft.nm {
		return fmt.Errorf("core: fact with %d values for %d measures", len(values), ft.nm)
	}
	var buf [8]int32
	ords, ok := ft.ordinals(buf[:0], coords)
	if !ok {
		return fmt.Errorf("core: fact coordinates %v not in the schema's dimensions", coords)
	}
	h := tupleKey(ords, t)
	ft.noteWrite(t)
	if pos, ok := ft.find(h, ords, t); ok {
		ft.tombstone(pos)
	}
	ft.appendTuple(h, ords, t, values)
	return nil
}

// Lookup returns the values at the given coordinates and time in a
// fresh slice of the caller's: a narrow shard holds no float64 to
// alias, so the values are copied out of every shard, and the slice
// aliases nothing of the table and stays valid across its writes. It
// is safe for concurrent use as long as no Insert or Retract runs. A
// caller that needs only whether the fact exists uses locate.
func (ft *FactTable) Lookup(coords Coords, t temporal.Instant) ([]float64, bool) {
	pos, ok := ft.locate(coords, t)
	if !ok {
		return nil, false
	}
	sh, j := ft.shardAt(pos)
	return sh.valuesAt(make([]float64, ft.nm), j), true
}

// All yields the stored facts in insertion order, translating each
// tuple's ordinals back to member version IDs; it stops when yield
// returns false. The yielded Fact is the walk's scratch: its fields are
// valid only until yield returns.
func (ft *FactTable) All(yield func(*Fact) bool) {
	nd := ft.nd
	f := &Fact{Coords: make(Coords, nd), Values: make([]float64, ft.nm)}
	ft.each(func(sh *factShard, j int) bool {
		ft.ids(f.Coords, sh.coords[j*nd:(j+1)*nd])
		f.Time = sh.at(j)
		sh.valuesAt(f.Values, j)
		return yield(f)
	})
}

// Facts returns a fresh view of the stored facts in insertion order,
// built on every call and never cached: it is O(facts). The slice has
// no spare capacity and no fact aliases the table.
func (ft *FactTable) Facts() []*Fact {
	nd, nm, size := ft.nd, ft.nm, ft.Len()
	arena := make([]Fact, 0, size)
	coords := make(Coords, size*nd)
	values := make([]float64, size*nm)
	ft.each(func(sh *factShard, j int) bool {
		i := len(arena)
		c := coords[i*nd : (i+1)*nd : (i+1)*nd]
		ft.ids(c, sh.coords[j*nd:(j+1)*nd])
		v := sh.valuesAt(values[i*nm:(i+1)*nm:(i+1)*nm], j)
		arena = append(arena, Fact{Coords: c, Time: sh.at(j), Values: v})
		return true
	})
	out := make([]*Fact, len(arena))
	for i := range arena {
		out[i] = &arena[i]
	}
	return out
}

// Retract removes the fact at (coords, t), returning a copy of the
// removed tuple: an index lookup and a tombstone in the slot
// (tombstone), which copies the shard's header and live bitmap, never
// its columns, when another generation may read it, as on the first
// retraction in a shard after a Clone. The surviving facts keep their
// insertion order. false means no fact is stored there, and nothing
// changed.
func (ft *FactTable) Retract(coords Coords, t temporal.Instant) (*Fact, bool) {
	pos, ok := ft.locate(coords, t)
	if !ok {
		return nil, false
	}
	sh, j := ft.shardAt(pos)
	f := &Fact{Coords: coords.Clone(), Time: t, Values: sh.valuesAt(make([]float64, ft.nm), j)}
	ft.tombstone(pos)
	return f, true
}

// firstAfter returns the first live fact, in position order, that holds
// member version id at coordinate position i at an instant past end.
// The ordinal's stats settle almost every call in O(1): no live tuple
// holds it, or all of them lie at or before end. Since a retraction
// leaves the stats' hull of instants as it was, a hull reaching past
// end is confirmed against the columns.
func (ft *FactTable) firstAfter(i int, id MVID, end temporal.Instant) (*Fact, bool) {
	mv := ft.dims[i].members[id]
	if mv == nil {
		return nil, false
	}
	if st := ft.ordStat(i, mv.ord); st.live == 0 || st.instants.End <= end {
		return nil, false
	}
	var out *Fact
	nd := ft.nd
	ft.each(func(sh *factShard, j int) bool {
		if sh.coords[j*nd+i] != mv.ord || sh.at(j) <= end {
			return true
		}
		out = &Fact{Coords: make(Coords, nd), Time: sh.at(j)}
		ft.ids(out.Coords, sh.coords[j*nd:(j+1)*nd])
		return false
	})
	return out, out != nil
}

// tombstone kills the tuple at global position pos: the slot stays in
// place (positional indexing over fixed-size shards must never shift)
// but its live bit is cleared, so every view, scan and index probe
// skips it and a later insert on the same coordinates appends a fresh
// tuple. The index keeps the slot's entry until a merge drops it. The
// bit is the header's own, so the table clears it in place in a header
// it owns, even below sharedBelow, and in a shard another table owns it
// first takes a header of its own over the same columns (borrow): a
// retraction copies a 512-byte bitmap, not the shard's columns. The
// header's zone is dropped, and the next scan rebuilds it without the
// dead tuple (zoneMap). A tombstone that leaves more than half of the
// slots of the table's shards dead compacts it.
func (ft *FactTable) tombstone(pos int) {
	si, j := pos>>shardShift, pos&shardMask
	sh := ft.shards[si]
	if sh.epoch != ft.epoch {
		sh = ft.borrow(si)
	}
	sh.live[j>>6] &^= 1 << (uint(j) & 63)
	sh.zone.Store(nil)
	ft.dead++
	t := sh.at(j)
	ft.noteWrite(t)
	ft.countOrds(sh.coords[j*ft.nd:(j+1)*ft.nd], t, -1)
	if 2*ft.dead > len(ft.shards)*MappedShardSize {
		ft.compact()
	}
}

// compact drops the table's dead slots: it re-appends the live tuples,
// in position order, into fresh shards of its own (appendColumns, which
// recounts the ordinal stats), and rebuilds the key index over them
// (reindex). The facts and their order stay as they were, and every
// other generation keeps the shards it reads. It runs once more than
// half of the slots of the shards are dead, so the live tuples fit in
// at most half as many shards, and a table holds at most twice its
// facts, plus one shard, in slots; its O(slots) is O(1) a tombstone,
// amortized. A table within one shard never compacts: fresh shards
// would take as much room as its own.
func (ft *FactTable) compact() {
	old := ft.shards
	ft.shards, ft.shardsShared = nil, false
	ft.n, ft.dead = 0, 0
	ft.ords, ft.ordShared = nil, false
	nd, values := ft.nd, make([]float64, ft.nm)
	for _, sh := range old {
		for j := 0; j < sh.n; j++ {
			if sh.isLive(j) {
				ft.appendColumns(sh.coords[j*nd:(j+1)*nd], sh.at(j), sh.valuesAt(values, j))
			}
		}
	}
	ft.reindex()
	metFactCompactions.Inc()
}

// clone returns a copy-on-write copy of the fact table over the
// schema's dimensions (which hold every version the source's ordinals
// name), in O(1) plus the bounded top of the key index. The clone
// shares the source's list of shard headers until its first write
// copies it — never the tuples — and takes a fresh epoch, so every
// inherited shard is shared: an append borrows the partial tail
// (tailShard), a tombstone takes a header of its own over its shard
// (tombstone). The receiver takes a fresh epoch and shares its list of
// shard headers too, so neither table writes a shard, or a list, the
// other reads.
//
// clone writes the receiver's ownership state: it needs the writer's
// exclusion, not the readers'. A published table is never written.
func (ft *FactTable) clone(s *Schema) *FactTable {
	out := &FactTable{
		shards:       ft.shards,
		shardsShared: true,
		n:            ft.n,
		epoch:        shardEpochCounter.Add(1),
		nd:           ft.nd,
		nm:           ft.nm,
		dims:         s.dims,
		// Published tables are never written again, so even the live top
		// of a freshly loaded source can be shared (keyIndex.clone).
		index:     ft.index.clone(),
		dead:      ft.dead,
		ords:      ft.ords,
		ordShared: true,
	}
	metShardsShared.Add(int64(len(ft.shards)))
	ft.epoch = shardEpochCounter.Add(1)
	ft.shardsShared, ft.ordShared = true, true
	return out
}

// noteWrite widens the hull of the instants written since the table was
// made by t.
func (ft *FactTable) noteWrite(t temporal.Instant) {
	iv := temporal.Between(t, t)
	if ft.wrote {
		iv = ft.written.Hull(iv)
	}
	ft.written, ft.wrote = iv, true
}

// ids writes the member version IDs of a tuple's ordinals into dst.
func (ft *FactTable) ids(dst Coords, ords []int32) {
	for i, o := range ords {
		dst[i] = ft.dims[i].order[o]
	}
}

// shardAt returns the shard and in-shard offset of global tuple i.
func (ft *FactTable) shardAt(i int) (*factShard, int) {
	return ft.shards[i>>shardShift], i & shardMask
}

// ordinals appends to dst the member version ordinals of coords, one
// per dimension; false when a coordinate names no member version of its
// dimension.
func (ft *FactTable) ordinals(dst []int32, coords Coords) ([]int32, bool) {
	if len(coords) != ft.nd {
		return dst, false
	}
	for i, id := range coords {
		mv := ft.dims[i].members[id]
		if mv == nil {
			return dst, false
		}
		dst = append(dst, mv.ord)
	}
	return dst, true
}

// locate returns the position of the live tuple at (coords, t).
func (ft *FactTable) locate(coords Coords, t temporal.Instant) (int, bool) {
	var buf [8]int32
	ords, ok := ft.ordinals(buf[:0], coords)
	if !ok {
		return 0, false
	}
	return ft.find(tupleKey(ords, t), ords, t)
}

// each calls fn for every live tuple, in position order, until fn
// returns false.
func (ft *FactTable) each(fn func(sh *factShard, j int) bool) {
	for _, sh := range ft.shards {
		for j := 0; j < sh.n; j++ {
			if sh.isLive(j) && !fn(sh, j) {
				return
			}
		}
	}
}

// tupleKey hashes the key (coords, t) of a tuple for the key index:
// every member version ordinal, then the instant.
func tupleKey(coords []int32, t temporal.Instant) uint64 {
	h := keyHashSeed
	for _, o := range coords {
		h = h.word(uint64(uint32(o)))
	}
	return h.at(t)
}

// hashAt returns the hash of the key of the tuple at position pos, the
// key index's placement of its entry.
func (ft *FactTable) hashAt(pos int) uint64 {
	sh, j := ft.shardAt(pos)
	return tupleKey(sh.coords[j*ft.nd:(j+1)*ft.nd], sh.at(j))
}

// find returns the position of the live tuple at (coords, t), whose key
// hashes to h: the index's candidates are confirmed against this
// table's length and the live bit, coordinates and time stored at
// their positions.
func (ft *FactTable) find(h uint64, coords []int32, t temporal.Instant) (int, bool) {
	return ft.index.get(h, func(pos int) bool { return ft.holds(pos, coords, t) })
}

// holds reports whether position pos holds a live tuple at (coords, t):
// the confirmation of an index candidate.
func (ft *FactTable) holds(pos int, coords []int32, t temporal.Instant) bool {
	if !ft.live(pos) {
		return false
	}
	sh, j := ft.shardAt(pos)
	return sh.at(j) == t && slices.Equal(sh.coords[j*ft.nd:(j+1)*ft.nd], coords)
}

// reindex replaces the key index with one layerless table sized exactly
// for the live tuples, their entries placed in position order, reading
// the columns front to back. It returns the first position whose key a
// live tuple before it holds; the index is then left as it was.
func (ft *FactTable) reindex() (int, bool) {
	kt := newKeyTable(slotsFor(ft.Len()))
	nd := ft.nd
	for pos := 0; pos < ft.n; pos++ {
		sh, j := ft.shardAt(pos)
		if !sh.isLive(j) {
			continue
		}
		coords, t := sh.coords[j*nd:(j+1)*nd], sh.at(j)
		h := tupleKey(coords, t)
		if _, dup := kt.find(h, func(q int) bool { return ft.holds(q, coords, t) }); dup {
			return pos, true
		}
		kt.add(h, pos)
	}
	ft.index = keyIndex{top: kt}
	return 0, false
}

// live reports whether position pos holds a live tuple of this table.
func (ft *FactTable) live(pos int) bool {
	if pos >= ft.n {
		return false
	}
	sh, j := ft.shardAt(pos)
	return sh.isLive(j)
}

// newShard returns an empty, narrow shard owned by this table, its
// instant column at base, its columns allocated at their full capacity,
// with a fresh claim on them.
func (ft *FactTable) newShard(base temporal.Instant) *factShard {
	return &factShard{
		epoch:  ft.epoch,
		claim:  new(atomic.Int32),
		coords: make([]int32, 0, MappedShardSize*ft.nd),
		base:   base,
		offs:   make([]uint16, 0, MappedShardSize),
		ints:   make([]int16, 0, MappedShardSize*ft.nm),
		live:   new([shardWords]uint64),
	}
}

// privatize copies tail shard si into a new shard this table owns, each
// of its instant and value columns as wide as the source's, or wide
// where wideAt or wideVals asks, so a widening copies the shard once.
// This is the whole copy-on-write cost of an append whose claim another
// generation won, or of a widening of a tail another header reads:
// O(MappedShardSize) once per (table, shard), never per tuple.
func (ft *FactTable) privatize(si int, wideAt, wideVals bool) *factShard {
	ft.ownShards()
	src := ft.shards[si]
	cp := &factShard{
		epoch:  ft.epoch,
		n:      src.n,
		claim:  new(atomic.Int32),
		coords: append(make([]int32, 0, MappedShardSize*ft.nd), src.coords...),
		base:   src.base,
		live:   cloneLive(src.live),
	}
	cp.claim.Store(int32(src.n))
	if wideAt || src.wide != nil {
		cp.wide = src.wideInstants()
	} else {
		cp.offs = append(make([]uint16, 0, MappedShardSize), src.offs...)
	}
	if wideVals || src.values != nil {
		cp.values = src.wideValues(ft.nm)
	} else {
		cp.ints = append(make([]int16, 0, MappedShardSize*ft.nm), src.ints...)
	}
	// The copy has identical coords and instants, so the zone map
	// carries over; the first append into the copy clears it.
	cp.zone.Store(src.zone.Load())
	ft.shards[si] = cp
	metShardsPrivatized.Inc()
	return cp
}

// ownShards gives the table a slice of shard headers of its own.
func (ft *FactTable) ownShards() {
	if ft.shardsShared {
		ft.shards = slices.Clone(ft.shards)
		ft.shardsShared = false
	}
}

// borrow puts a header of this table's own over the columns of shard
// si: the first n slots stay shared with the header it came from
// (sharedBelow), so their columns are only read, and the slots from n
// on are this table's to append to, in place, once it wins the claim
// on them (tailShard). The live bitmap is the header's own: borrow
// copies it. An append takes one over a partial tail after claiming its
// next slot, a tombstone one over any shard, without a claim.
func (ft *FactTable) borrow(si int) *factShard {
	ft.ownShards()
	src := ft.shards[si]
	sh := &factShard{
		epoch:       ft.epoch,
		n:           src.n,
		claim:       src.claim,
		sharedBelow: src.n,
		coords:      src.coords,
		base:        src.base,
		offs:        src.offs,
		wide:        src.wide,
		ints:        src.ints,
		values:      src.values,
		live:        cloneLive(src.live),
	}
	ft.shards[si] = sh
	metShardsBorrowed.Inc()
	return sh
}

// tailShard returns the shard the next appended tuple, at instant t
// with the given values, lands in, its next slot claimed for this table
// and its columns able to take the tuple. A full tail gets a fresh shard
// behind it, whose narrow window is centred on t. A partial tail is
// appended to in place when this table wins the claim on its next slot
// — borrowed first if the header is another table's — and privatized
// otherwise: the slot was taken by another generation. A narrow column
// that cannot take the tuple is widened.
func (ft *FactTable) tailShard(t temporal.Instant, values []float64) *factShard {
	if len(ft.shards) == 0 || ft.shards[len(ft.shards)-1].n == MappedShardSize {
		ft.ownShards()
		ft.shards = append(ft.shards, ft.newShard(t-narrowSpan/2))
	}
	si := len(ft.shards) - 1
	sh := ft.shards[si]
	if !sh.claim.CompareAndSwap(int32(sh.n), int32(sh.n+1)) {
		sh = ft.privatize(si, !sh.holds(t), !sh.fits(values))
		sh.claim.Add(1)
	} else if sh.epoch != ft.epoch {
		sh = ft.borrow(si)
	}
	if !sh.holds(t) || !sh.fits(values) {
		sh = ft.widen(si, t, values)
	}
	return sh
}

// widen gives tail shard si, whose next slot this table has claimed,
// the wide columns a tuple at instant t with the given values needs: a
// wide instant column when t misses the narrow window, a float64 value
// column when narrow cannot hold a value. Widening never writes a
// column another header reads: a borrowed tail shares its columns, so
// it is privatized straight into the wide form (the copy's claim taking
// the slot the shared one gave up); a shard the table owns alone gets
// the wide column in place of its narrow one.
func (ft *FactTable) widen(si int, t temporal.Instant, values []float64) *factShard {
	sh := ft.shards[si]
	wideAt, wideVals := !sh.holds(t), !sh.fits(values)
	if sh.sharedBelow > 0 {
		sh = ft.privatize(si, wideAt, wideVals)
		sh.claim.Add(1)
		return sh
	}
	if wideAt {
		sh.offs, sh.wide = nil, sh.wideInstants()
	}
	if wideVals {
		sh.ints, sh.values = nil, sh.wideValues(ft.nm)
	}
	return sh
}

// appendTuple stores a fact whose key, hashed to h, the table does not
// hold, in a fresh slot at the end, and its key index entry. The slices
// are the caller's; appendTuple copies them.
func (ft *FactTable) appendTuple(h uint64, coords []int32, t temporal.Instant, values []float64) {
	ft.appendColumns(coords, t, values)
	ft.index.put(h, ft.n-1, ft)
}

// appendColumns stores a fact in a fresh slot at the end, leaving the
// key index as it is: everything appendTuple does but the index entry.
func (ft *FactTable) appendColumns(coords []int32, t temporal.Instant, values []float64) {
	sh := ft.tailShard(t, values)
	j := sh.n
	sh.coords = append(sh.coords, coords...)
	if sh.wide != nil {
		sh.wide = append(sh.wide, t)
	} else {
		sh.offs = append(sh.offs, uint16(t-sh.base))
	}
	sh.appendValues(values)
	sh.live[j>>6] |= 1 << (uint(j) & 63)
	sh.n++
	// Appends change the coords and instants the zone map summarizes:
	// drop a stale zone, and seal a freshly filled shard with its final
	// zone (full shards never change again under this table's epoch).
	if sh.n == MappedShardSize {
		sh.zone.Store(buildZone(sh, ft.nd))
	} else if sh.zone.Load() != nil {
		sh.zone.Store(nil)
	}
	ft.n++
	ft.countOrds(coords, t, 1)
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
func (ft *FactTable) ordStat(i int, o int32) ordStat {
	if i >= len(ft.ords) {
		return ordStat{}
	}
	chunks, ci := ft.ords[i], int(o)/ordChunkSize
	if ci >= len(chunks) || chunks[ci] == nil {
		return ordStat{}
	}
	return chunks[ci].stats[int(o)%ordChunkSize]
}

// countOrds records that a tuple at instant t holding the given
// ordinals was added (delta 1) or removed (delta -1), copying a chunk
// another table may read before writing into it.
func (ft *FactTable) countOrds(ords []int32, t temporal.Instant, delta int32) {
	if ft.ordShared || ft.ords == nil {
		own := make([][]*ordChunk, ft.nd)
		for i, chunks := range ft.ords {
			own[i] = slices.Clone(chunks)
		}
		ft.ords, ft.ordShared = own, false
	}
	for i, o := range ords {
		ci := int(o) / ordChunkSize
		for len(ft.ords[i]) <= ci {
			ft.ords[i] = append(ft.ords[i], nil)
		}
		c := ft.ords[i][ci]
		if c == nil || c.epoch != ft.epoch {
			own := &ordChunk{epoch: ft.epoch}
			if c != nil {
				own.stats = c.stats
			}
			ft.ords[i][ci], c = own, own
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
