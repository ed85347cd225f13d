package core

import (
	"maps"
	"math"
	"slices"
)

// keyIndex is the one key → int index under both fact tables: the
// source FactTable maps a fact key to the fact's insertion ordinal, a
// MappedTable maps it to the tuple's position. It is persistent across
// clone-swap generations — a clone costs its bounded top, never its
// history:
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
	top    map[string]int
	layers []*indexLayer
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
	m     map[string]int
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

func newKeyIndex(capacity int) keyIndex {
	return keyIndex{top: make(map[string]int, capacity)}
}

// get returns the live value stored under key. Keys are probed as
// map[string(key)], which the compiler compiles without allocating.
// The top is skipped while empty — the state of a fresh clone of a
// cold-built index.
func (ix *keyIndex) get(key []byte) (int, bool) {
	if len(ix.top) != 0 {
		if v, ok := ix.top[string(key)]; ok {
			return v, v != indexDead
		}
	}
	for i := len(ix.layers) - 1; i >= 0; i-- {
		l := ix.layers[i]
		if v, ok := l.m[string(key)]; ok && v < l.bound {
			return v, v != indexDead
		}
	}
	return 0, false
}

// put stores key → v. The key must not be live (callers probe with get
// first), and v must be at least every value the lineage stored before
// it: fact ordinals and tuple positions only grow, and that is what
// lets a clone screen its source's later puts by value.
func (ix *keyIndex) put(key []byte, v int) {
	if len(ix.layers) > 0 && len(ix.top) >= indexSealAt {
		ix.seal()
	}
	ix.top[string(key)] = v
}

// delete removes a live key. With nothing below a small top the entry
// is simply dropped; otherwise a tombstone shadows the layers. A large
// top without layers may be some clone's bottom, which tolerates fresh
// keys only, so it is sealed before the tombstone is written.
func (ix *keyIndex) delete(key []byte) {
	if len(ix.layers) == 0 && len(ix.top) <= indexSealAt {
		delete(ix.top, string(key))
		return
	}
	if len(ix.top) >= indexSealAt {
		ix.seal()
	}
	ix.top[string(key)] = indexDead
}

// clone returns an index over the same entries that shares every frozen
// layer and copies only the bounded top. bound is the lineage's next
// value. A cold-built index past the seal bound has all its entries in
// one large top; the clone takes that live map as its bottom layer
// under bound instead of copying it, and the receiver — which does not
// learn of the clone — may keep putting fresh keys into it.
func (ix *keyIndex) clone(bound int) keyIndex {
	if len(ix.layers) == 0 && len(ix.top) > indexSealAt {
		return keyIndex{
			top:    make(map[string]int),
			layers: []*indexLayer{{m: ix.top, bound: bound}},
		}
	}
	return keyIndex{top: maps.Clone(ix.top), layers: ix.layers}
}

// seal freezes the top as the newest layer and restores the layer
// invariants: geometric sizes, overlay at most a quarter of the bottom.
// Layers other generations may hold are never written; merges build
// new maps.
func (ix *keyIndex) seal() {
	// Clipped, so the append copies: the slice is shared with clones.
	layers := append(slices.Clip(ix.layers), &indexLayer{m: ix.top, bound: math.MaxInt})
	ix.top = make(map[string]int)
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
	m := make(map[string]int, size)
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
