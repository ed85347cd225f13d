package core

import (
	"slices"

	"mvolap/internal/temporal"
)

// keyIndex is the fact table's one key → position index. It stores no
// key: an entry is one 64-bit word, the key hash's high 32 bits (its
// fingerprint) over the tuple position plus one, and the owner confirms
// every hit against its own columns — get takes a match function that
// says whether the live tuple at a position has the probed key. An
// entry is therefore a candidate, never an answer:
//
//   - two keys with one fingerprint are two candidates, each confirmed;
//   - a retraction writes nothing here: the entry of a dead slot fails
//     confirmation (the slot's live bit), and a re-inserted key appends
//     a fresh entry beside it;
//   - an entry whose position lies past the table's length, or that
//     another generation wrote, fails confirmation the same way.
//
// The one invariant is completeness: every live tuple of a generation
// has its entry somewhere in that generation's tables.
//
// The index is persistent across clone-swap generations — a clone
// costs its bounded top, never its history:
//
//   - top is a small table this generation owns and writes;
//   - layers are immutable frozen tables, oldest (the bottom) first,
//     that generations share. The slice itself is shared too and is
//     replaced, never appended to in place.
//
// A lookup probes top, then the layers newest first, until a candidate
// is confirmed.
//
// The owner seals its top into a new frozen layer during its own
// mutation once the top holds indexSealAt entries — never at clone
// time, so taking a clone writes nothing a reader of the published
// generation could see. Sealed layers merge geometrically (a layer is
// merged into its older neighbour once it is more than half its size),
// which keeps the depth logarithmic in the overlay, and the whole
// overlay folds into a fresh bottom once it passes a quarter of it.
// A merge keeps only the entries whose positions are live in the
// merging generation, so dead entries last until the next merge over
// them. That maintenance is the only write-path work that is not
// O(batch); it is counted (metKeyIndex*) and reported per generation
// (sealed, merged).
//
// A freshly loaded index has no layers and never seals on insert, so
// loading a warehouse pays no merges: its top simply is the whole
// index. The first clone of such an index shares that live top as its
// bottom layer: whatever the source puts there afterwards is a
// candidate the clone's own columns reject.
type keyIndex struct {
	top    keyTable
	layers []keyTable
	// sealed and merged count the layers this generation sealed and the
	// entries its merges and flattens wrote since it was created or
	// cloned.
	sealed, merged int
}

// keyTable is one open-addressing table of entries, probed linearly
// from the slot multiply-shift places a fingerprint at (so a capacity
// need not be a power of two). A zero word is an empty slot; the load
// never passes 3/4, so every probe ends at one. n counts the entries.
type keyTable struct {
	slots []uint64
	n     int
}

const (
	// indexSealAt bounds the owned top of a layered index, and with it
	// what a clone copies.
	indexSealAt = 256
	// indexFlattenRatio folds every layer into one once the overlay
	// outgrows 1/indexFlattenRatio of the bottom.
	indexFlattenRatio = 4
	// indexMinSlots is the capacity of a top's first table.
	indexMinSlots = 8
)

// keyHash accumulates the 64-bit hash of a tuple key one word at a
// time: member version ordinals, then the instant. Each
// step is a bijection of the running state, so two keys that differ in
// their last word never collide; the index confirms every hit anyway.
type keyHash uint64

const keyHashSeed keyHash = 0x243f6a8885a308d3

func (h keyHash) word(x uint64) keyHash {
	u := (uint64(h) ^ x) * 0x9e3779b97f4a7c15
	return keyHash(u ^ u>>29)
}

// at folds the instant and returns the finished hash.
func (h keyHash) at(t temporal.Instant) uint64 { return uint64(h.word(uint64(t))) }

// indexMaxPos is the last position an entry can hold: pos+1 must fit
// the low 32 bits and not be zero. put panics past it, so a table of
// 1<<32 - 1 tuples (80 GiB of columns at one measure) fails loudly
// instead of corrupting its index.
const indexMaxPos = 1<<32 - 2

// entry packs a key hashed to h at position pos into one word: the
// fingerprint above, pos+1 below, so no entry is zero.
func entry(h uint64, pos int) uint64 { return h&^(1<<32-1) | uint64(pos+1) }

// entryPos returns the position an entry holds.
func entryPos(e uint64) int { return int(uint32(e)) - 1 }

// slotsFor returns the capacity that holds n entries at a load just
// under 3/4: 8/(3/4) ≈ 10.7 B an entry.
func slotsFor(n int) int { return n + n/3 + 1 }

// home returns the slot a probe for fingerprint fp starts at.
func (kt *keyTable) home(fp uint64) int { return int(fp * uint64(len(kt.slots)) >> 32) }

// find returns the first position among the entries under h's
// fingerprint that match accepts.
func (kt *keyTable) find(h uint64, match func(int) bool) (int, bool) {
	slots := kt.slots
	if len(slots) == 0 {
		return 0, false
	}
	fp := h >> 32
	for i := kt.home(fp); ; {
		e := slots[i]
		if e == 0 {
			return 0, false
		}
		if e>>32 == fp && match(entryPos(e)) {
			return entryPos(e), true
		}
		if i++; i == len(slots) {
			i = 0
		}
	}
}

// add stores entry e in a table with room for it; an equal entry
// already present is kept instead.
func (kt *keyTable) add(e uint64) {
	for i := kt.home(e >> 32); ; {
		switch kt.slots[i] {
		case 0:
			kt.slots[i] = e
			kt.n++
			return
		case e:
			return
		}
		if i++; i == len(kt.slots) {
			i = 0
		}
	}
}

// get returns the position of the key hashed to h: the first candidate
// match accepts. match must report whether the tuple at a position is
// live in this generation and has the probed key.
func (ix *keyIndex) get(h uint64, match func(int) bool) (int, bool) {
	if pos, ok := ix.top.find(h, match); ok {
		return pos, true
	}
	for i := len(ix.layers) - 1; i >= 0; i-- {
		if pos, ok := ix.layers[i].find(h, match); ok {
			return pos, true
		}
	}
	return 0, false
}

// put stores the key hashed to h at position pos. The key must not be
// live (callers probe with get first). live reports whether a position
// holds a live tuple of this generation: a seal's merges keep only
// those entries. A full top grows by half, so its load stays within
// 1/2 and 3/4: at most 16 B an entry.
func (ix *keyIndex) put(h uint64, pos int, live func(int) bool) {
	if uint(pos) > indexMaxPos {
		panic("core: fact table holds more tuples than its key index can address")
	}
	if len(ix.layers) > 0 && ix.top.n >= indexSealAt {
		ix.seal(live)
	}
	if top := &ix.top; 4*(top.n+1) > 3*len(top.slots) {
		grown := keyTable{slots: make([]uint64, max(indexMinSlots, len(top.slots)+len(top.slots)/2))}
		for _, e := range top.slots {
			if e != 0 {
				grown.add(e)
			}
		}
		*top = grown
	}
	ix.top.add(entry(h, pos))
}

// clone returns an index over the same entries that shares every frozen
// layer and copies only the bounded top. A freshly loaded index past
// the seal bound has all its entries in one large top; the clone takes
// that live table as its bottom layer instead of copying it, and the
// receiver — which does not learn of the clone — may keep putting
// entries into it: they are candidates the clone's columns reject.
func (ix *keyIndex) clone() keyIndex {
	if len(ix.layers) == 0 && ix.top.n > indexSealAt {
		return keyIndex{layers: []keyTable{ix.top}}
	}
	return keyIndex{top: keyTable{slots: slices.Clone(ix.top.slots), n: ix.top.n}, layers: ix.layers}
}

// bytes is the footprint of every table the index reaches, shared
// layers included.
func (ix *keyIndex) bytes() int {
	b := 8 * cap(ix.top.slots)
	for _, l := range ix.layers {
		b += 8 * cap(l.slots)
	}
	return b
}

// seal freezes the top as the newest layer and restores the layer
// invariants: geometric sizes, overlay at most a quarter of the bottom.
// Layers other generations may hold are never written; merges build
// new tables.
func (ix *keyIndex) seal(live func(int) bool) {
	// Clipped, so the append copies: the slice is shared with clones.
	layers := append(slices.Clip(ix.layers), ix.top)
	ix.top = keyTable{}
	ix.sealed++
	metKeyIndexSeals.Inc()

	for n := len(layers); n >= 3 && 2*layers[n-1].n > layers[n-2].n; n = len(layers) {
		layers[n-2] = ix.mergeLayers(layers[n-2:], live)
		layers = layers[:n-1]
	}
	overlay := 0
	for _, l := range layers[1:] {
		overlay += l.n
	}
	if overlay*indexFlattenRatio > layers[0].n {
		layers = []keyTable{ix.mergeLayers(layers, live)}
		metKeyIndexFlattens.Inc()
	}
	ix.layers = layers
}

// mergeLayers folds layers into one new table sized exactly for the
// entries whose positions are live, dropping the rest.
func (ix *keyIndex) mergeLayers(layers []keyTable, live func(int) bool) keyTable {
	size := 0
	for _, l := range layers {
		for _, e := range l.slots {
			if e != 0 && live(entryPos(e)) {
				size++
			}
		}
	}
	out := keyTable{slots: make([]uint64, slotsFor(size))}
	for _, l := range layers {
		for _, e := range l.slots {
			if e != 0 && live(entryPos(e)) {
				out.add(e)
			}
		}
	}
	ix.merged += out.n
	metKeyIndexMerged.Add(int64(out.n))
	return out
}
