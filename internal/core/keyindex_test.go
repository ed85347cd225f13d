package core

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"testing"
)

// indexRun is what the lineages of one property run share: the hash
// the keys are indexed under, the key every value was put with, and
// counts of the overflow events the run went through. Values are
// unique across the run — the next value is len(keyAt) — so keyAt is
// one table every lineage confirms its hits against, as a fact table
// confirms them against its columns: the slot of a deleted key still
// holds that key.
type indexRun struct {
	hash   func(key string) uint64
	keyAt  []string
	events struct {
		overflowPuts, overflowDeletes, tombstonesTaken, overflowClones int
	}
}

// fullHash is the hash a one-dimensional fact table gives a key at
// instant 0.
func fullHash(key string) uint64 { return keyHashSeed.id(MVID(key)).at(0) }

// indexLineage is one generation of a keyIndex under test beside the
// plain map it must agree with. tombKey records, per hash, the key
// whose delete last wrote a tombstone.
type indexLineage struct {
	run     *indexRun
	ix      keyIndex
	model   map[string]int
	tombKey map[uint64]string
}

func newIndexLineage(run *indexRun) *indexLineage {
	return &indexLineage{run: run, ix: newKeyIndex(0), model: map[string]int{}, tombKey: map[uint64]string{}}
}

func (l *indexLineage) fork() *indexLineage {
	if len(l.ix.overflow) != 0 {
		l.run.events.overflowClones++
	}
	return &indexLineage{
		run:     l.run,
		ix:      l.ix.clone(len(l.run.keyAt)),
		model:   maps.Clone(l.model),
		tombKey: maps.Clone(l.tombKey),
	}
}

// layerEntry returns the entry the layers hold under h, tombstones
// included.
func layerEntry(ix *keyIndex, h uint64) (int, bool) {
	if v, ok := ix.top[h]; ok {
		return v, true
	}
	for i := len(ix.layers) - 1; i >= 0; i-- {
		if v, ok := ix.layers[i].m[h]; ok && v < ix.layers[i].bound {
			return v, true
		}
	}
	return 0, false
}

func (l *indexLineage) get(key string) (int, bool) {
	return l.ix.get(l.run.hash(key), func(v int) bool { return l.run.keyAt[v] == key })
}

func (l *indexLineage) put(key string) {
	h, v := l.run.hash(key), len(l.run.keyAt)
	switch w, ok := layerEntry(&l.ix, h); {
	case ok && w != indexDead:
		l.run.events.overflowPuts++
	case ok && l.tombKey[h] != key:
		l.run.events.tombstonesTaken++
	}
	l.run.keyAt = append(l.run.keyAt, key)
	l.ix.put(h, v)
	l.model[key] = v
}

func (l *indexLineage) del(key string) {
	h, v := l.run.hash(key), l.model[key]
	if w, ok := layerEntry(&l.ix, h); !ok || w != v {
		l.run.events.overflowDeletes++
	}
	l.ix.delete(h, v)
	if w, ok := layerEntry(&l.ix, h); ok && w == indexDead {
		l.tombKey[h] = key
	}
	delete(l.model, key)
}

// adopt puts a fork into the pool of lineages under test. A full pool
// retires a random lineage to make room — never the parent, which is to
// keep writing beside its fork.
func adopt[L comparable](r *rand.Rand, pool []L, parent, fork L, limit int) []L {
	if len(pool) < limit {
		return append(pool, fork)
	}
	victim := r.Intn(len(pool))
	if pool[victim] == parent {
		victim = (victim + 1) % len(pool)
	}
	pool[victim] = fork
	return pool
}

// check compares every key of the universe, live or not, and the
// structural invariants: a layered index keeps its top bounded and its
// depth logarithmic in the overlay.
func (l *indexLineage) check(t *testing.T, label string, universe int) {
	t.Helper()
	for k := 0; k < universe; k++ {
		key := fmt.Sprintf("k%d", k)
		got, ok := l.get(key)
		want, wantOK := l.model[key]
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("%s: get(%s) = %d, %v; model has %d, %v", label, key, got, ok, want, wantOK)
		}
	}
	if len(l.ix.layers) == 0 {
		return
	}
	if len(l.ix.top) > indexSealAt {
		t.Fatalf("%s: layered index holds %d entries in its top, bound %d", label, len(l.ix.top), indexSealAt)
	}
	overlay := 0
	for _, layer := range l.ix.layers[1:] {
		overlay += len(layer.m)
	}
	if maxDepth := 2 + bits.Len(uint(overlay/indexSealAt)); len(l.ix.layers) > maxDepth {
		t.Fatalf("%s: %d layers over an overlay of %d entries, want at most %d", label, len(l.ix.layers), overlay, maxDepth)
	}
}

// TestPropertyKeyIndexMatchesMap drives forking lineages of one
// keyIndex — a parent keeps writing after it was cloned, clones are
// cloned again — through random put / delete / re-put after delete /
// get, and requires every lineage to agree with its own plain map
// throughout. Each seed starts from a cold-built index large enough
// that its first clone shares the live top, and runs long enough to
// cross seal, geometric merge and flatten.
//
// The hashbits runs repeat it with the hash cut to its low bits, so
// that most puts find their hash owned by another live key and go to
// the overflow. At 4 bits the layers hold at most 16 entries, never
// seal and never write a tombstone; at 10 bits they do all three, so a
// tombstone is taken over by a different key.
func TestPropertyKeyIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			seals, merged, flattens := metKeyIndexSeals.Value(), metKeyIndexMerged.Value(), metKeyIndexFlattens.Value()
			runKeyIndexProperty(t, seed, &indexRun{hash: fullHash})
			seals, merged, flattens = metKeyIndexSeals.Value()-seals, metKeyIndexMerged.Value()-merged, metKeyIndexFlattens.Value()-flattens
			if seals == 0 || merged == 0 || flattens == 0 {
				t.Fatalf("run crossed %d seals, %d merged entries, %d flattens; want all three exercised", seals, merged, flattens)
			}
		})
	}
	for _, width := range []int{4, 10} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("hashbits=%d/seed=%d", width, seed), func(t *testing.T) {
				mask := uint64(1)<<width - 1
				run := &indexRun{hash: func(key string) uint64 { return fullHash(key) & mask }}
				overflow := metKeyIndexOverflow.Value()
				runKeyIndexProperty(t, seed, run)
				ev := run.events
				t.Logf("%d overflow puts, %d overflow deletes, %d tombstones taken over, %d clones with an overflow",
					ev.overflowPuts, ev.overflowDeletes, ev.tombstonesTaken, ev.overflowClones)
				if got := metKeyIndexOverflow.Value() - overflow; got != int64(ev.overflowPuts) {
					t.Errorf("mvolap_key_index_overflow_total moved by %d over %d overflow puts", got, ev.overflowPuts)
				}
				if ev.overflowPuts == 0 || ev.overflowDeletes == 0 || ev.overflowClones == 0 {
					t.Errorf("run made %d overflow puts, %d overflow deletes, %d clones with an overflow; want each exercised",
						ev.overflowPuts, ev.overflowDeletes, ev.overflowClones)
				}
				if width > 8 && ev.tombstonesTaken == 0 {
					t.Error("no tombstone was taken over by a different key")
				}
			})
		}
	}
}

func runKeyIndexProperty(t *testing.T, seed int64, run *indexRun) {
	const (
		universe = 6000
		coldSize = 3 * indexSealAt
		steps    = 24000
		maxForks = 6
	)
	r := rand.New(rand.NewSource(seed))
	root := newIndexLineage(run)
	for k := 0; k < coldSize; k++ {
		root.put(fmt.Sprintf("k%d", k))
	}
	if root.ix.sealed != 0 || len(root.ix.layers) != 0 {
		t.Fatalf("cold build sealed %d layers", root.ix.sealed)
	}
	// The first clone of the cold-built index, and a parent that keeps
	// writing (fresh keys, deletes, re-puts) beside it.
	lineages := []*indexLineage{root, root.fork()}
	if len(root.ix.top) > indexSealAt {
		if got := lineages[1].ix.layers; len(got) != 1 || len(lineages[1].ix.top) != 0 {
			t.Fatalf("first clone of a cold index has %d layers and %d top entries, want the shared top as its only layer",
				len(got), len(lineages[1].ix.top))
		}
	}

	for step := 0; step < steps; step++ {
		l := lineages[r.Intn(len(lineages))]
		key := fmt.Sprintf("k%d", r.Intn(universe))
		_, live := l.model[key]
		switch op := r.Intn(100); {
		case op < 2:
			lineages = adopt(r, lineages, l, l.fork(), maxForks)
		case op < 25 && live:
			l.del(key)
		case !live:
			l.put(key) // fresh, or a re-put after a delete
		default:
			got, ok := l.get(key)
			if !ok || got != l.model[key] {
				t.Fatalf("step %d: get(%s) = %d, %v; model has %d", step, key, got, ok, l.model[key])
			}
		}
		if step%2000 == 0 {
			for i, l := range lineages {
				l.check(t, fmt.Sprintf("step %d lineage %d", step, i), universe)
			}
		}
	}
	for i, l := range lineages {
		l.check(t, fmt.Sprintf("end lineage %d", i), universe)
	}
}

// TestKeyIndexCloneLeavesSourceUntouched pins the sharing rules a
// published table relies on: taking a clone writes nothing to the
// source, a layered source hands over its frozen layers by pointer and
// only its top by copy, and a seal on either side builds new layers
// instead of writing shared ones.
func TestKeyIndexCloneLeavesSourceUntouched(t *testing.T) {
	run := &indexRun{hash: fullHash}
	src := newIndexLineage(run)
	put := func(l *indexLineage, count int) {
		for i := 0; i < count; i++ {
			l.put(fmt.Sprintf("k%d", len(run.keyAt)))
		}
	}
	put(src, 2*indexSealAt)
	// Become layered: a delete on a large cold top seals it first.
	src.del("k0")
	put(src, indexSealAt/2)
	if len(src.ix.layers) != 1 {
		t.Fatalf("source has %d layers, want 1", len(src.ix.layers))
	}
	bottom, top := src.ix.layers[0], maps.Clone(src.ix.top)

	cl := src.fork()
	if cl.ix.layers[0] != bottom {
		t.Error("clone copied a frozen layer instead of sharing it")
	}
	put(cl, 2*indexSealAt) // crosses a seal on the clone
	if cl.ix.sealed == 0 {
		t.Fatal("clone never sealed")
	}
	if len(src.ix.layers) != 1 || src.ix.layers[0] != bottom || !maps.Equal(src.ix.top, top) {
		t.Error("writes to the clone reached the source")
	}
	if _, ok := src.get(run.keyAt[len(run.keyAt)-1]); ok {
		t.Error("clone's key visible through the source")
	}
	if _, ok := cl.get("k0"); ok {
		t.Error("source's tombstone lost in the clone")
	}
}
