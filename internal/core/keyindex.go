package core

import (
	"maps"
	"math"
	"slices"

	"mvolap/internal/temporal"
)

// keyIndex is the one key → int index under both fact tables: the
// source FactTable maps a fact key to the fact's insertion ordinal, a
// MappedTable maps it to the tuple's position. It stores no key: an
// entry is a 64-bit hash of the key (keyHash) and the value, and the
// owner confirms every hit against its own columns — get takes a match
// function that says whether the tuple at a value has the probed key.
// A hash collision therefore costs a second probe, never a wrong
// answer:
//
//   - the layers hold at most one entry per hash, owned by the live key
//     that took the hash first (or a tombstone, once that key is gone);
//   - a key whose hash another live key already owns goes to overflow,
//     a map from hash to values that get and delete consult after the
//     layers and that clone copies. Its value slices are never written
//     in place, so the copy can be shallow.
//
// The index is persistent across clone-swap generations — a clone
// costs its bounded top and its overflow, never its history:
//
//   - top is a small map this generation owns and writes;
//   - layers are immutable frozen maps, oldest (the bottom) first, that
//     generations share by pointer. The slice itself is shared too and
//     is replaced, never appended to in place.
//
// A lookup probes top, then the layers newest first; the first entry
// found wins. A deletion is a tombstone entry (indexDead) that shadows
// whatever the lower layers hold.
//
// The owner seals its top into a new frozen layer during its own
// mutation once the top holds indexSealAt entries — never at clone
// time, so taking a clone writes nothing a reader of the published
// generation could see. Sealed layers merge geometrically (a layer is
// merged into its older neighbour once it is more than half its size),
// which keeps the depth logarithmic in the overlay, and the whole
// overlay folds into a fresh bottom once it passes a quarter of it.
// That maintenance is the only write-path work that is not O(batch);
// it is counted (metKeyIndex*) and reported per generation (sealed,
// merged).
//
// A cold-built index has no layers and never seals on insert, so cold
// materialization pays no merges: its top simply is the whole index.
// The first clone of such an index shares that live top as its bottom
// layer, screened by a value bound (see clone).
type keyIndex struct {
	top      map[uint64]int
	layers   []*indexLayer
	overflow map[uint64][]int
	// sealed and merged count the layers this generation sealed and the
	// entries its merges and flattens rewrote since it was created or
	// cloned.
	sealed, merged int
}

// indexLayer is one frozen layer. bound screens a bottom layer that is
// another generation's live top: entries with a value at or above it
// were put there after the clone was taken and belong to that
// generation only. Sealed and merged layers carry math.MaxInt.
type indexLayer struct {
	m     map[uint64]int
	bound int
}

const (
	// indexSealAt bounds the owned top of a layered index, and with it
	// what a clone copies.
	indexSealAt = 256
	// indexFlattenRatio folds every layer into one once the overlay
	// outgrows 1/indexFlattenRatio of the bottom.
	indexFlattenRatio = 4
	// indexDead is the tombstone value; live values are non-negative.
	indexDead = -1
)

// keyHash accumulates the 64-bit hash of a fact key one word at a
// time: member version ordinals or ID bytes, then the instant. Each
// step is a bijection of the running state, so two keys that differ in
// their last word never collide; the index confirms every hit anyway.
type keyHash uint64

const keyHashSeed keyHash = 0x243f6a8885a308d3

func (h keyHash) word(x uint64) keyHash {
	u := (uint64(h) ^ x) * 0x9e3779b97f4a7c15
	return keyHash(u ^ u>>29)
}

// id folds a member version ID: its bytes eight at a time, then its
// length, so IDs that concatenate to the same bytes still differ.
func (h keyHash) id(id MVID) keyHash {
	n := len(id)
	for len(id) >= 8 {
		h = h.word(uint64(id[0]) | uint64(id[1])<<8 | uint64(id[2])<<16 | uint64(id[3])<<24 |
			uint64(id[4])<<32 | uint64(id[5])<<40 | uint64(id[6])<<48 | uint64(id[7])<<56)
		id = id[8:]
	}
	var tail uint64
	for i := 0; i < len(id); i++ {
		tail |= uint64(id[i]) << (8 * i)
	}
	return h.word(tail).word(uint64(n))
}

// at folds the instant and returns the finished hash.
func (h keyHash) at(t temporal.Instant) uint64 { return uint64(h.word(uint64(t))) }

func newKeyIndex(capacity int) keyIndex {
	return keyIndex{top: make(map[uint64]int, capacity)}
}

// owner returns the live value the layers hold under h, indexDead when
// they hold none (no entry, or a tombstone). The top is skipped while
// empty — the state of a fresh clone of a cold-built index.
func (ix *keyIndex) owner(h uint64) int {
	if len(ix.top) != 0 {
		if v, ok := ix.top[h]; ok {
			return v
		}
	}
	for i := len(ix.layers) - 1; i >= 0; i-- {
		l := ix.layers[i]
		if v, ok := l.m[h]; ok && v < l.bound {
			return v
		}
	}
	return indexDead
}

// get returns the live value of the key hashed to h: the value match
// accepts among the layers' owner of h and the overflow's values for
// h. match must report whether the tuple at a live value has the
// probed key.
func (ix *keyIndex) get(h uint64, match func(int) bool) (int, bool) {
	if v := ix.owner(h); v != indexDead && match(v) {
		return v, true
	}
	if len(ix.overflow) != 0 {
		for _, v := range ix.overflow[h] {
			if match(v) {
				return v, true
			}
		}
	}
	return 0, false
}

// put stores the key hashed to h → v. The key must not be live
// (callers probe with get first), and v must be at least every value
// the lineage stored before it: fact ordinals and tuple positions only
// grow, and that is what lets a clone screen its source's later puts
// by value. A hash another live key owns sends the key to the
// overflow.
func (ix *keyIndex) put(h uint64, v int) {
	if ix.owner(h) != indexDead {
		if ix.overflow == nil {
			ix.overflow = make(map[uint64][]int)
		}
		// Clipped, so the append copies: clones share the slices.
		ix.overflow[h] = append(slices.Clip(ix.overflow[h]), v)
		metKeyIndexOverflow.Inc()
		return
	}
	if len(ix.layers) > 0 && len(ix.top) >= indexSealAt {
		ix.seal()
	}
	ix.top[h] = v
}

// delete removes the live key hashed to h, whose value is v. A key the
// layers do not own lives in the overflow. With nothing below a small
// top the entry is simply dropped; otherwise a tombstone shadows the
// layers. A large top without layers may be some clone's bottom, which
// tolerates fresh keys only, so it is sealed before the tombstone is
// written.
func (ix *keyIndex) delete(h uint64, v int) {
	if ix.owner(h) != v {
		vs := ix.overflow[h]
		if len(vs) == 1 {
			delete(ix.overflow, h)
		} else {
			ix.overflow[h] = slices.DeleteFunc(slices.Clone(vs), func(x int) bool { return x == v })
		}
		return
	}
	if len(ix.layers) == 0 && len(ix.top) <= indexSealAt {
		delete(ix.top, h)
		return
	}
	if len(ix.top) >= indexSealAt {
		ix.seal()
	}
	ix.top[h] = indexDead
}

// clone returns an index over the same entries that shares every frozen
// layer and copies only the bounded top and the overflow. bound is the
// lineage's next value. A cold-built index past the seal bound has all
// its layer entries in one large top; the clone takes that live map as
// its bottom layer under bound instead of copying it, and the receiver
// — which does not learn of the clone — may keep putting fresh keys
// into it.
func (ix *keyIndex) clone(bound int) keyIndex {
	overflow := maps.Clone(ix.overflow)
	if len(ix.layers) == 0 && len(ix.top) > indexSealAt {
		return keyIndex{
			top:      make(map[uint64]int),
			layers:   []*indexLayer{{m: ix.top, bound: bound}},
			overflow: overflow,
		}
	}
	return keyIndex{top: maps.Clone(ix.top), layers: ix.layers, overflow: overflow}
}

// seal freezes the top as the newest layer and restores the layer
// invariants: geometric sizes, overlay at most a quarter of the bottom.
// Layers other generations may hold are never written; merges build
// new maps.
func (ix *keyIndex) seal() {
	// Clipped, so the append copies: the slice is shared with clones.
	layers := append(slices.Clip(ix.layers), &indexLayer{m: ix.top, bound: math.MaxInt})
	ix.top = make(map[uint64]int)
	ix.sealed++
	metKeyIndexSeals.Inc()

	for n := len(layers); n >= 3 && 2*len(layers[n-1].m) > len(layers[n-2].m); n = len(layers) {
		layers[n-2] = ix.mergeLayers(layers[n-2:], false)
		layers = layers[:n-1]
	}
	overlay := 0
	for _, l := range layers[1:] {
		overlay += len(l.m)
	}
	if overlay*indexFlattenRatio > len(layers[0].m) {
		layers = []*indexLayer{ix.mergeLayers(layers, true)}
		metKeyIndexFlattens.Inc()
	}
	ix.layers = layers
}

// mergeLayers folds layers (oldest first, newest entry wins) into one
// new layer. bottom says nothing lies below the result, so tombstones
// have nothing left to shadow and are dropped.
func (ix *keyIndex) mergeLayers(layers []*indexLayer, bottom bool) *indexLayer {
	size := 0
	for _, l := range layers {
		size += len(l.m)
	}
	m := make(map[uint64]int, size)
	for _, l := range layers {
		for k, v := range l.m {
			switch {
			case v >= l.bound:
			case v == indexDead && bottom:
				delete(m, k)
			default:
				m[k] = v
			}
		}
	}
	ix.merged += len(m)
	metKeyIndexMerged.Add(int64(len(m)))
	return &indexLayer{m: m, bound: math.MaxInt}
}
