package core

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"testing"
)

// indexLineage is one generation of a keyIndex under test beside the
// plain map it must agree with. next is the lineage's value counter:
// values only grow, which is the contract put relies on.
type indexLineage struct {
	ix    keyIndex
	model map[string]int
	next  int
}

func (l *indexLineage) fork() *indexLineage {
	return &indexLineage{ix: l.ix.clone(l.next), model: maps.Clone(l.model), next: l.next}
}

func (l *indexLineage) put(key string) {
	l.ix.put([]byte(key), l.next)
	l.model[key] = l.next
	l.next++
}

func (l *indexLineage) del(key string) {
	l.ix.delete([]byte(key))
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
		got, ok := l.ix.get([]byte(key))
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
func TestPropertyKeyIndexMatchesMap(t *testing.T) {
	const (
		universe = 6000
		coldSize = 3 * indexSealAt
		steps    = 24000
		maxForks = 6
	)
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			seals, merged, flattens := metKeyIndexSeals.Value(), metKeyIndexMerged.Value(), metKeyIndexFlattens.Value()
			root := &indexLineage{ix: newKeyIndex(0), model: map[string]int{}}
			for root.next < coldSize {
				root.put(fmt.Sprintf("k%d", root.next))
			}
			if root.ix.sealed != 0 || len(root.ix.layers) != 0 {
				t.Fatalf("cold build sealed %d layers", root.ix.sealed)
			}
			// The first clone of the cold-built index, and a parent that
			// keeps writing (fresh keys, deletes, re-puts) beside it.
			lineages := []*indexLineage{root, root.fork()}
			if got := lineages[1].ix.layers; len(got) != 1 || len(lineages[1].ix.top) != 0 {
				t.Fatalf("first clone of a cold index has %d layers and %d top entries, want the shared top as its only layer",
					len(got), len(lineages[1].ix.top))
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
					got, ok := l.ix.get([]byte(key))
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
			seals, merged, flattens = metKeyIndexSeals.Value()-seals, metKeyIndexMerged.Value()-merged, metKeyIndexFlattens.Value()-flattens
			if seals == 0 || merged == 0 || flattens == 0 {
				t.Fatalf("run crossed %d seals, %d merged entries, %d flattens; want all three exercised", seals, merged, flattens)
			}
		})
	}
}

// TestKeyIndexCloneLeavesSourceUntouched pins the sharing rules a
// published table relies on: taking a clone writes nothing to the
// source, a layered source hands over its frozen layers by pointer and
// only its top by copy, and a seal on either side builds new layers
// instead of writing shared ones.
func TestKeyIndexCloneLeavesSourceUntouched(t *testing.T) {
	src := newKeyIndex(0)
	n := 0
	put := func(ix *keyIndex, count int) {
		for i := 0; i < count; i++ {
			ix.put([]byte(fmt.Sprintf("k%d", n)), n)
			n++
		}
	}
	put(&src, 2*indexSealAt)
	// Become layered: a delete on a large cold top seals it first.
	src.delete([]byte("k0"))
	put(&src, indexSealAt/2)
	if len(src.layers) != 1 {
		t.Fatalf("source has %d layers, want 1", len(src.layers))
	}
	bottom, top := src.layers[0], maps.Clone(src.top)

	cl := src.clone(n)
	if cl.layers[0] != bottom {
		t.Error("clone copied a frozen layer instead of sharing it")
	}
	put(&cl, 2*indexSealAt) // crosses a seal on the clone
	if cl.sealed == 0 {
		t.Fatal("clone never sealed")
	}
	if len(src.layers) != 1 || src.layers[0] != bottom || !maps.Equal(src.top, top) {
		t.Error("writes to the clone reached the source")
	}
	if _, ok := src.get([]byte(fmt.Sprintf("k%d", n-1))); ok {
		t.Error("clone's key visible through the source")
	}
	if _, ok := cl.get([]byte("k0")); ok {
		t.Error("source's tombstone lost in the clone")
	}
}
