package core

import (
	"slices"
	"unsafe"

	"mvolap/internal/temporal"
)

// keyIndex is the fact table's one key → position index. It stores no
// key: a slot is a 4-byte tuple position and a 1-byte tag, one byte of
// the key's hash, and the owner confirms every hit against its own
// columns — get takes a match function that says whether the live
// tuple at a position has the probed key. An entry is therefore a
// candidate, never an answer:
//
//   - two keys with one tag in one probe run are two candidates, each
//     confirmed;
//   - a retraction writes nothing here: the entry of a dead slot fails
//     confirmation (the slot's live bit), and a re-inserted key appends
//     a fresh entry beside it;
//   - an entry whose position lies past the table's length, or that
//     another generation wrote, fails confirmation the same way.
//
// Since a slot keeps no hash, a table that grows or merges places each
// entry again by the hash of the key the rebuilding generation's own
// columns hold at its position (keyOwner.hashAt), and only for
// positions live there. A table that holds every live position — a top
// with no layers, or the bottom a flatten builds — is built by walking
// those positions in order rather than any table's entries, so an entry
// another generation left in a shared table is never copied.
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
// overlay folds into a fresh bottom once it passes a quarter of it: a
// flatten walks the owner's live positions in order instead of the
// tables, which between them hold every one.
// A merge keeps only the entries whose positions are live in the
// merging generation, so dead entries last until the next merge over
// them. That maintenance is the only write-path work that is not
// O(batch); it is counted (metKeyIndex*) and reported per generation
// (sealed, merged).
//
// A freshly loaded index has no layers and never seals on insert, so
// loading a warehouse pays no merges: its top simply is the whole
// index, and it grows by walking the owner's positions in order. The
// first clone of such an index shares that live top as its bottom
// layer: whatever the source puts there afterwards is a candidate the
// clone's own columns reject.
type keyIndex struct {
	top    keyTable
	layers []keyTable
	// sealed and merged count the layers this generation sealed and the
	// entries its merges and flattens wrote since it was created or
	// cloned.
	sealed, merged int
}

// keyTable is one open-addressing table of entries, probed linearly
// from the slot multiply-shift places a hash at (so a capacity need not
// be a power of two). Its slots live in one block of 64-bit words: the
// L positions as uint32s, then the L tags as bytes, L as many as the
// block holds, so that a table is one allocation of 5 B a slot. Tag 0
// marks an empty slot; the load never passes 3/4, so every probe ends
// at one. n counts the entries.
type keyTable struct {
	slots []uint64
	n     int
}

// keyOwner is what the index reads of the table it indexes: whether a
// position holds a live tuple of the owning generation, and the hash of
// the key that tuple has. hashAt is asked only of live positions.
type keyOwner interface {
	live(pos int) bool
	hashAt(pos int) uint64
}

const (
	// indexSealAt bounds the owned top of a layered index, and with it
	// what a clone copies.
	indexSealAt = 256
	// indexFlattenRatio folds every layer into one once the overlay
	// outgrows 1/indexFlattenRatio of the bottom.
	indexFlattenRatio = 4
	// indexMinSlots is the capacity of a layerless top's first table.
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

// indexMaxPos is the last position an entry can hold: a position must
// fit its 32-bit slot. add panics past it, so a table of 1<<32 + 1
// tuples (80 GiB of columns at one measure) fails loudly instead of
// corrupting its index.
const indexMaxPos = 1<<32 - 1

// tagOf returns the tag of hash h: its low 32 bits, which the home slot
// does not use, scaled into 1..255.
func tagOf(h uint64) byte { return byte(uint64(uint32(h))*255>>32) + 1 }

// slotsFor returns the capacity that holds n entries at a load just
// under 3/4: 5/(3/4) ≈ 6.7 B an entry.
func slotsFor(n int) int { return n + n/3 + 1 }

// newKeyTable returns an empty table of at least l slots.
func newKeyTable(l int) keyTable {
	return keyTable{slots: make([]uint64, (5*l+7)/8)}
}

// width returns the table's number of slots: as many as its block
// holds at 5 B a slot.
func (kt *keyTable) width() int { return len(kt.slots) * 8 / 5 }

// views returns the table's positions and tags, each of its L slots.
func (kt *keyTable) views() (pos []uint32, tags []byte) {
	l := kt.width()
	if l == 0 {
		return nil, nil
	}
	block := unsafe.Pointer(unsafe.SliceData(kt.slots))
	return unsafe.Slice((*uint32)(block), l), unsafe.Slice((*byte)(unsafe.Add(block, 4*l)), l)
}

// home returns the slot a probe for hash h starts at in a table of l
// slots.
func home(h uint64, l int) int { return int(h >> 32 * uint64(l) >> 32) }

// find returns the first position among the entries under h's tag
// that match accepts.
func (kt *keyTable) find(h uint64, match func(int) bool) (int, bool) {
	pos, tags := kt.views()
	if len(tags) == 0 {
		return 0, false
	}
	tag := tagOf(h)
	for i := home(h, len(tags)); ; {
		switch tags[i] {
		case 0:
			return 0, false
		case tag:
			if p := int(pos[i]); match(p) {
				return p, true
			}
		}
		if i++; i == len(tags) {
			i = 0
		}
	}
}

// add stores the entry of position p, whose key hashes to h, in a table
// with room for it and no entry of p yet.
func (kt *keyTable) add(h uint64, p int) {
	if uint(p) > indexMaxPos {
		panic("core: fact table holds more tuples than its key index can address")
	}
	pos, tags := kt.views()
	i := home(h, len(tags))
	for tags[i] != 0 {
		if i++; i == len(tags) {
			i = 0
		}
	}
	pos[i], tags[i] = uint32(p), tagOf(h)
	kt.n++
}

// fill adds the entry of every live position of the owner below n, in
// position order, reading the owner's columns front to back.
func (kt *keyTable) fill(n int, owner keyOwner) {
	for p := 0; p < n; p++ {
		if owner.live(p) {
			kt.add(owner.hashAt(p), p)
		}
	}
}

// each calls fn with the position of every entry of the table.
func (kt *keyTable) each(fn func(p int)) {
	pos, tags := kt.views()
	for i, tag := range tags {
		if tag != 0 {
			fn(int(pos[i]))
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
// live (callers probe with get first), and every position below pos is
// one the owner has written or never will. A seal's merges keep the
// entries of the owner's live positions.
//
// A top with no layers is the whole index: when full it grows by half,
// so its load stays within 1/2 and 3/4 (at most 10 B an entry), walking
// the owner's live positions below pos in order, which reads the
// columns front to back. A layered top is empty until its first put
// after a seal or a clone, and is then made at once for the indexSealAt
// entries it holds before it seals, so it never grows.
func (ix *keyIndex) put(h uint64, pos int, owner keyOwner) {
	if len(ix.layers) > 0 && ix.top.n >= indexSealAt {
		ix.seal(pos, owner)
	}
	if top := &ix.top; 4*(top.n+1) > 3*top.width() {
		if len(ix.layers) > 0 {
			*top = newKeyTable(slotsFor(indexSealAt))
		} else {
			grown := newKeyTable(max(indexMinSlots, top.width()+top.width()/2))
			grown.fill(pos, owner)
			*top = grown
		}
	}
	ix.top.add(h, pos)
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
// below bounds the owner's positions. Layers other generations may
// hold are never written; merges build new tables.
func (ix *keyIndex) seal(below int, owner keyOwner) {
	// Clipped, so the append copies: the slice is shared with clones.
	layers := append(slices.Clip(ix.layers), ix.top)
	ix.top = keyTable{}
	ix.sealed++
	metKeyIndexSeals.Inc()

	for n := len(layers); n >= 3 && 2*layers[n-1].n > layers[n-2].n; n = len(layers) {
		layers[n-2] = ix.mergeLayers(layers[n-2:], owner)
		layers = layers[:n-1]
	}
	overlay := 0
	for _, l := range layers[1:] {
		overlay += l.n
	}
	if overlay*indexFlattenRatio > layers[0].n {
		layers = []keyTable{ix.flatten(below, owner)}
		metKeyIndexFlattens.Inc()
	}
	ix.layers = layers
}

// flatten builds the one table that replaces every layer. Between them
// the layers hold every live position below n, so it walks those
// positions in order, reading the owner's columns front to back, into
// a table sized exactly for them.
func (ix *keyIndex) flatten(n int, owner keyOwner) keyTable {
	size := 0
	for p := 0; p < n; p++ {
		if owner.live(p) {
			size++
		}
	}
	out := newKeyTable(slotsFor(size))
	out.fill(n, owner)
	ix.merged += out.n
	metKeyIndexMerged.Add(int64(out.n))
	return out
}

// mergeLayers folds layers into one new table sized exactly for the
// entries whose positions are live, each placed by the hash of the key
// the owner holds there, and drops the rest. The layers are tops this
// lineage sealed above the bottom, so no position has two entries
// among them.
func (ix *keyIndex) mergeLayers(layers []keyTable, owner keyOwner) keyTable {
	size := 0
	for _, l := range layers {
		l.each(func(p int) {
			if owner.live(p) {
				size++
			}
		})
	}
	out := newKeyTable(slotsFor(size))
	for _, l := range layers {
		l.each(func(p int) {
			if owner.live(p) {
				out.add(owner.hashAt(p), p)
			}
		})
	}
	ix.merged += out.n
	metKeyIndexMerged.Add(int64(out.n))
	return out
}
