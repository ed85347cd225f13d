package core

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"mvolap/internal/temporal"
)

// indexRun is what the lineages of one property run share: the hash
// the keys are indexed under and the key every position was put with.
// Positions are unique across the run — the next one is len(keyAt) —
// so keyAt is one column every lineage confirms its candidates
// against, beside its own live set, as a fact table confirms them
// against its columns and live bits: the slot of a retracted key still
// holds that key. put records every key ever put; events counts what
// the run went through.
type indexRun struct {
	hash   func(key string) uint64
	keyAt  []string
	put    map[string]bool
	events struct {
		// rejected counts candidates confirmation turned down: a shared
		// tag, a dead slot or another lineage's position.
		rejected, reinserts, retracts int
	}
}

// fullHash is the hash a one-dimensional fact table gives key "kN" at
// instant 0: the key of member version ordinal N.
func fullHash(key string) uint64 {
	n, err := strconv.Atoi(key[1:])
	if err != nil {
		panic(err)
	}
	return tupleKey([]int32{int32(n)}, 0)
}

// truncatedHash keeps only the top width bits of the hash, so that
// keys share home slots and, their low bits all zero, one tag: probes
// meet several candidates.
func truncatedHash(width int) func(string) uint64 {
	mask := ^uint64(0) << (64 - width)
	return func(key string) uint64 { return fullHash(key) & mask }
}

// oneTag keeps the high half of the hash, which places an entry, and
// zeroes the low half, which the tag is taken from: every key has one
// tag, so every candidate a probe meets is confirmed.
func oneTag(key string) uint64 { return fullHash(key) &^ (1<<32 - 1) }

// indexLineage is one generation of a keyIndex under test beside the
// plain map it must agree with: model maps each live key to its
// position, alive is the inverse — the lineage's live bits.
type indexLineage struct {
	run   *indexRun
	ix    keyIndex
	model map[string]int
	alive map[int]bool
}

func newIndexLineage(run *indexRun) *indexLineage {
	return &indexLineage{run: run, model: map[string]int{}, alive: map[int]bool{}}
}

func (l *indexLineage) fork() *indexLineage {
	return &indexLineage{run: l.run, ix: l.ix.clone(), model: maps.Clone(l.model), alive: maps.Clone(l.alive)}
}

func (l *indexLineage) live(pos int) bool { return l.alive[pos] }

// hashAt is the hash of the key the run put at pos: the lineage's
// column the index places its entries by.
func (l *indexLineage) hashAt(pos int) uint64 { return l.run.hash(l.run.keyAt[pos]) }

func (l *indexLineage) get(key string) (int, bool) {
	return l.ix.get(l.run.hash(key), func(pos int) bool {
		if l.alive[pos] && l.run.keyAt[pos] == key {
			return true
		}
		l.run.events.rejected++
		return false
	})
}

func (l *indexLineage) put(key string) {
	pos := len(l.run.keyAt)
	if l.run.put[key] {
		l.run.events.reinserts++
	}
	if l.run.put == nil {
		l.run.put = map[string]bool{}
	}
	l.run.put[key] = true
	l.run.keyAt = append(l.run.keyAt, key)
	l.ix.put(l.run.hash(key), pos, l)
	l.model[key] = pos
	l.alive[pos] = true
}

// del retracts a live key: the lineage clears its live bit and the
// index is not written at all.
func (l *indexLineage) del(key string) {
	delete(l.alive, l.model[key])
	delete(l.model, key)
	l.run.events.retracts++
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
// depth logarithmic in the overlay, and no table passes a load of 3/4.
func (l *indexLineage) check(t *testing.T, label string, universe int) {
	t.Helper()
	for k := 0; k < universe; k++ {
		key := "k" + strconv.Itoa(k)
		got, ok := l.get(key)
		want, wantOK := l.model[key]
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("%s: get(%s) = %d, %v; model has %d, %v", label, key, got, ok, want, wantOK)
		}
	}
	for i, kt := range append([]keyTable{l.ix.top}, l.ix.layers...) {
		if 4*kt.n > 3*kt.width() {
			t.Fatalf("%s: table %d holds %d entries in %d slots, past a load of 3/4", label, i, kt.n, kt.width())
		}
	}
	if len(l.ix.layers) == 0 {
		return
	}
	if l.ix.top.n > indexSealAt {
		t.Fatalf("%s: layered index holds %d entries in its top, bound %d", label, l.ix.top.n, indexSealAt)
	}
	overlay := 0
	for _, layer := range l.ix.layers[1:] {
		overlay += layer.n
	}
	if maxDepth := 2 + bits.Len(uint(overlay/indexSealAt)); len(l.ix.layers) > maxDepth {
		t.Fatalf("%s: %d layers over an overlay of %d entries, want at most %d", label, len(l.ix.layers), overlay, maxDepth)
	}
}

// TestPropertyKeyIndexMatchesMap drives forking lineages of one
// keyIndex — a parent keeps writing after it was cloned, clones are
// cloned again — through random put / retract / re-put after retract /
// get, and requires every lineage to agree with its own plain map
// throughout. Each seed starts from a cold-built index large enough
// that its first clone shares the live top, and runs long enough to
// cross seal, geometric merge and flatten.
//
// The hashbits runs repeat it with the hash cut to its top bits, so
// that most probes meet candidates of other keys: at 4 bits every key
// shares its home slot's neighbourhood and its tag with a sixteenth of
// the universe. The onetag runs keep the placement and give every key
// one tag, so that every probe confirms every candidate it meets.
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
	cuts := []struct {
		name string
		hash func(string) uint64
	}{{"hashbits=4", truncatedHash(4)}, {"hashbits=10", truncatedHash(10)}, {"onetag", oneTag}}
	for _, cut := range cuts {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", cut.name, seed), func(t *testing.T) {
				run := &indexRun{hash: cut.hash}
				runKeyIndexProperty(t, seed, run)
				ev := run.events
				t.Logf("%d candidates rejected, %d re-inserts, %d retracts", ev.rejected, ev.reinserts, ev.retracts)
				if ev.rejected == 0 || ev.reinserts == 0 || ev.retracts == 0 {
					t.Errorf("run rejected %d candidates over %d re-inserts and %d retracts; want each exercised",
						ev.rejected, ev.reinserts, ev.retracts)
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
		root.put("k" + strconv.Itoa(k))
	}
	if root.ix.sealed != 0 || len(root.ix.layers) != 0 {
		t.Fatalf("cold build sealed %d layers", root.ix.sealed)
	}
	// The first clone of the cold-built index, and a parent that keeps
	// writing (fresh keys, retracts, re-puts) beside it.
	lineages := []*indexLineage{root, root.fork()}
	if got := lineages[1].ix; len(got.layers) != 1 || got.top.n != 0 || &got.layers[0].slots[0] != &root.ix.top.slots[0] {
		t.Fatalf("first clone of a cold index has %d layers and %d top entries, want the shared top as its only layer",
			len(got.layers), got.top.n)
	}

	for step := 0; step < steps; step++ {
		l := lineages[r.Intn(len(lineages))]
		key := "k" + strconv.Itoa(r.Intn(universe))
		_, live := l.model[key]
		switch op := r.Intn(100); {
		case op < 2:
			lineages = adopt(r, lineages, l, l.fork(), maxForks)
		case op < 25 && live:
			l.del(key)
		case !live:
			l.put(key) // fresh, or a re-put after a retract
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
// source, a cold source hands over its live top as the clone's bottom,
// a layered source hands over its frozen layers as they are and only
// its top by copy, and a seal on either side builds new layers instead
// of writing shared ones.
func TestKeyIndexCloneLeavesSourceUntouched(t *testing.T) {
	run := &indexRun{hash: fullHash}
	put := func(l *indexLineage, count int) {
		for i := 0; i < count; i++ {
			l.put("k" + strconv.Itoa(len(run.keyAt)))
		}
	}
	cold := newIndexLineage(run)
	put(cold, 2*indexSealAt)
	src := cold.fork()
	if len(src.ix.layers) != 1 || &src.ix.layers[0].slots[0] != &cold.ix.top.slots[0] {
		t.Fatal("the clone of a cold index copied its top instead of sharing it")
	}
	// The cold source keeps writing into the table its clone shares.
	put(cold, indexSealAt/8)
	if _, ok := src.get(run.keyAt[len(run.keyAt)-1]); ok {
		t.Error("the cold source's later key is visible through its clone")
	}
	put(src, indexSealAt/2)
	src.del("k0")
	bottom, top := src.ix.layers[0], slices.Clone(src.ix.top.slots)

	cl := src.fork()
	if &cl.ix.layers[0].slots[0] != &bottom.slots[0] || &cl.ix.top.slots[0] == &src.ix.top.slots[0] {
		t.Error("clone copied a frozen layer, or shares the source's top")
	}
	put(cl, 2*indexSealAt) // crosses a seal on the clone
	if cl.ix.sealed == 0 {
		t.Fatal("clone never sealed")
	}
	if len(src.ix.layers) != 1 || &src.ix.layers[0].slots[0] != &bottom.slots[0] || !slices.Equal(src.ix.top.slots, top) {
		t.Error("writes to the clone reached the source")
	}
	if _, ok := src.get(run.keyAt[len(run.keyAt)-1]); ok {
		t.Error("clone's key visible through the source")
	}
	if _, ok := cl.get("k0"); ok {
		t.Error("source's retraction lost in the clone")
	}
	src.check(t, "source", len(run.keyAt))
	cl.check(t, "clone", len(run.keyAt))
}

// columnGen is one generation of an owner that, as a fact table does,
// keeps a column of its own: the key at each position, which another
// generation may hold differently past the length they share.
type columnGen struct {
	ix    keyIndex
	keys  []int
	alive []bool
}

func (g *columnGen) live(pos int) bool     { return pos < len(g.keys) && g.alive[pos] }
func (g *columnGen) hashAt(pos int) uint64 { return tupleKey([]int32{int32(g.keys[pos])}, 0) }

// TestKeyIndexRebuildReadsOwnColumns: a table the index rebuilds holds
// an entry for exactly the live positions it rebuilt from, each placed
// under the key the rebuilding generation's own column holds there. A
// clone takes a freshly loaded source's live top as its bottom; the
// source keeps putting entries into that table, at positions the clone
// then fills with keys of its own; the clone retracts some tuples and
// seals, merges and flattens past the shared table. No entry the
// source left there reaches a table the clone builds: each holds one
// entry per live position, tagged and placed by the clone's key, and
// the flattened bottom holds every live position.
func TestKeyIndexRebuildReadsOwnColumns(t *testing.T) {
	src := &columnGen{}
	add := func(g *columnGen, key int) {
		pos := len(g.keys)
		g.keys, g.alive = append(g.keys, key), append(g.alive, true)
		g.ix.put(g.hashAt(pos), pos, g)
	}
	for k := 0; k < 16*indexSealAt; k++ {
		add(src, k)
	}
	cl := &columnGen{ix: src.ix.clone(), keys: slices.Clone(src.keys), alive: slices.Clone(src.alive)}
	shared := cl.ix.layers[0]
	if len(cl.ix.layers) != 1 || &shared.slots[0] != &src.ix.top.slots[0] {
		t.Fatal("the clone of a freshly loaded index does not share its live top")
	}
	// The source puts into the shared table, short of growing it, at
	// positions the clone fills with other keys, or leaves dead, below.
	for k := 0; k < indexSealAt/8 && 4*(src.ix.top.n+1) <= 3*src.ix.top.width(); k++ {
		add(src, 1_000_000+k)
	}
	if src.ix.top.n == shared.n || &src.ix.top.slots[0] != &shared.slots[0] {
		t.Fatal("the source did not write the shared table")
	}

	// rebuilt checks a table the clone built: every entry is live in the
	// clone and tagged and placed by the clone's own key, and there is
	// exactly one per live position it covers.
	rebuilt := func(label string, kt keyTable, covered func(pos int) bool) {
		t.Helper()
		seen := map[int]bool{}
		kt.each(func(p int) {
			if !cl.live(p) {
				t.Fatalf("%s: holds an entry at position %d, not live in the clone", label, p)
			}
			if seen[p] {
				t.Fatalf("%s: holds position %d twice", label, p)
			}
			seen[p] = true
			if got, ok := kt.find(cl.hashAt(p), func(q int) bool { return q == p }); !ok || got != p {
				t.Fatalf("%s: position %d is not found under the clone's key %d", label, p, cl.keys[p])
			}
		})
		for p := range cl.keys {
			if cl.live(p) && covered(p) && !seen[p] {
				t.Fatalf("%s: lacks live position %d", label, p)
			}
		}
		if kt.n != len(seen) {
			t.Fatalf("%s: counts %d entries, holds %d", label, kt.n, len(seen))
		}
	}

	flattened, merged := 0, 0
	for k := 0; k < 24*indexSealAt; k++ {
		if k%7 == 3 {
			p := len(cl.keys) - 2
			cl.alive[p] = false // a retraction: the index is not written
		}
		top, before := cl.ix.top, slices.Clone(cl.ix.layers)
		add(cl, 2_000_000+k)
		for i, l := range cl.ix.layers {
			if slices.ContainsFunc(before, func(o keyTable) bool { return &o.slots[0] == &l.slots[0] }) ||
				len(top.slots) > 0 && &l.slots[0] == &top.slots[0] {
				continue // carried over as it was, or the top it sealed
			}
			if i == 0 {
				// A new bottom is a flatten: every live position below the
				// one just put.
				flattened++
				rebuilt(fmt.Sprintf("put %d: flattened bottom", k), l, func(p int) bool { return p < len(cl.keys)-1 })
				continue
			}
			merged++
			rebuilt(fmt.Sprintf("put %d: layer %d", k, i), l, func(int) bool { return false })
		}
	}
	if flattened == 0 || merged == 0 {
		t.Fatalf("the clone flattened %d times and merged %d layers, want both", flattened, merged)
	}
	for _, l := range cl.ix.layers {
		if &l.slots[0] == &shared.slots[0] {
			t.Fatal("the clone still probes the table the source writes")
		}
	}
	for p, key := range cl.keys {
		got, ok := cl.ix.get(cl.hashAt(p), func(q int) bool { return cl.live(q) && cl.keys[q] == key })
		if ok != cl.live(p) || (ok && got != p) {
			t.Fatalf("get(key %d) = %d, %v; position %d live %v", key, got, ok, p, cl.live(p))
		}
	}
}

// TestRetractWritesNoIndexEntry: FactTable.Retract clears a live bit
// and writes nothing to the key index — not its top, not its layers —
// on a cold index (one large top, no layers) and on a layered one (a
// clone that sealed), for tuples whose entries sit in the top and in a
// frozen layer alike. The retracted tuples are then gone from lookups
// and their keys take a fresh insert.
func TestRetractWritesNoIndexEntry(t *testing.T) {
	const members, years = 50, 50
	ids := make([]MVID, members)
	for i := range ids {
		ids[i] = MVID("m" + strconv.Itoa(i))
	}
	fill := func(ft *FactTable, from, to int) {
		for i := from; i < to; i++ {
			if err := ft.Insert(Coords{ids[i%members]}, y(2000+i/members), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	retract := func(label string, ft *FactTable, tuples ...int) {
		t.Helper()
		top, layers := slices.Clone(ft.index.top.slots), slices.Clone(ft.index.layers)
		layerSlots := make([][]uint64, len(layers))
		for i, l := range layers {
			layerSlots[i] = slices.Clone(l.slots)
		}
		for _, i := range tuples {
			if _, ok := ft.Retract(Coords{ids[i%members]}, y(2000+i/members)); !ok {
				t.Fatalf("%s: tuple %d not found to retract", label, i)
			}
		}
		if !slices.Equal(top, ft.index.top.slots) || len(layers) != len(ft.index.layers) {
			t.Fatalf("%s: retracting wrote the index's top or its layer list", label)
		}
		for i, l := range ft.index.layers {
			if l.n != layers[i].n || !slices.Equal(layerSlots[i], l.slots) {
				t.Fatalf("%s: retracting wrote layer %d", label, i)
			}
		}
		for _, i := range tuples {
			if _, ok := ft.Lookup(Coords{ids[i%members]}, y(2000+i/members)); ok {
				t.Errorf("%s: retracted tuple %d still found", label, i)
			}
		}
	}

	s := factSchema(t, 1, ids...)
	cold := s.Facts()
	fill(cold, 0, 8*indexSealAt)
	if len(cold.index.layers) != 0 || cold.index.top.n != 8*indexSealAt {
		t.Fatalf("cold index has %d layers and %d top entries", len(cold.index.layers), cold.index.top.n)
	}
	retract("cold", cold, 0, 1, 500, 8*indexSealAt-1)

	layered := s.Clone().Facts()
	fill(layered, 8*indexSealAt, members*years)
	if len(layered.index.layers) < 2 || layered.index.top.n == 0 {
		t.Fatalf("layered index has %d layers and %d top entries, want a sealed layer and a non-empty top",
			len(layered.index.layers), layered.index.top.n)
	}
	// Tuples from the shared bottom, from a sealed layer and from the top.
	retract("layered", layered, 2, 8*indexSealAt, members*years-1)
	if err := layered.Insert(Coords{ids[2]}, y(2000), 7); err != nil {
		t.Fatal(err)
	}
	if v, ok := layered.Lookup(Coords{ids[2]}, y(2000)); !ok || v[0] != 7 {
		t.Errorf("re-inserted tuple reads %v, %v", v, ok)
	}
}

// FuzzKeyIndexLineage plays a byte string as a lineage history against
// a map model per generation: the first byte picks the hash (full, cut
// to 4 or 10 bits so that keys share home slots and tags, or with one
// tag for every key), the second the size of the cold build, and every
// further three bytes one operation — an insert, a replacement (a probe
// that must hit and write nothing), a retraction, a re-insert, a clone,
// or a sibling that writes and is discarded. Every generation still
// held is checked against its model every 64 operations and at the
// end. The one seed tier-1 runs is a 3 000-operation history at 4 bits,
// long enough to seal, merge and flatten.
func FuzzKeyIndexLineage(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	seed := make([]byte, 2+3*3000)
	r.Read(seed)
	seed[0], seed[1] = 1, 255
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		const universe, maxForks = 1024, 6
		if len(data) < 2 {
			return
		}
		run := &indexRun{hash: [...]func(string) uint64{fullHash, truncatedHash(4), truncatedHash(10), oneTag}[data[0]%4]}
		root := newIndexLineage(run)
		for k := 0; k < 4*int(data[1]); k++ {
			root.put("k" + strconv.Itoa(k%universe))
			if k >= universe {
				root.del("k" + strconv.Itoa(k%universe))
				root.put("k" + strconv.Itoa(k%universe))
			}
		}
		lineages := []*indexLineage{root}
		pick := rand.New(rand.NewSource(int64(len(data))))
		apply := func(l *indexLineage, op byte, key string) {
			_, live := l.model[key]
			switch {
			case op%8 < 3 && live:
				l.del(key)
			case op%8 == 3 && live:
				top, layers := l.ix.top.n, len(l.ix.layers)
				if got, ok := l.get(key); !ok || got != l.model[key] {
					t.Fatalf("replace: get(%s) = %d, %v; model has %d", key, got, ok, l.model[key])
				}
				if l.ix.top.n != top || len(l.ix.layers) != layers {
					t.Fatalf("a replacement of %s wrote the key index", key)
				}
			case !live:
				l.put(key)
			}
		}
		ops := data[2:]
		for i := 0; i+3 <= len(ops); i += 3 {
			op, key := ops[i], "k"+strconv.Itoa((int(ops[i+1])<<8|int(ops[i+2]))%universe)
			l := lineages[int(op>>4)%len(lineages)]
			switch op % 16 {
			case 14:
				lineages = adopt(pick, lineages, l, l.fork(), maxForks)
			case 15:
				// A sibling writes and is dropped; l must not see any of it.
				d := l.fork()
				for k := 0; k < 8; k++ {
					apply(d, byte(k), "k"+strconv.Itoa((int(ops[i+1])+k*37)%universe))
				}
			default:
				apply(l, op, key)
			}
			if (i/3)%64 == 63 {
				for j, l := range lineages {
					l.check(t, fmt.Sprintf("op %d lineage %d", i/3, j), universe)
				}
			}
		}
		for j, l := range lineages {
			l.check(t, fmt.Sprintf("end lineage %d", j), universe)
		}
	})
}

// TestKeyIndexProbeConfirmations counts the confirmations a probe
// makes — the column reads of its match function — along a lineage of
// 64 writes of 64 fresh facts on lineageSchema's warehouse, the ingest
// warehouse's shape (1 000 leaves, one measure) at 36 and 144 months a
// leaf, the cost suite's N and 4N, so across seals and geometric
// merges. Before each insert the fresh key is looked up, a
// miss, and then a stored key drawn at random, a hit; each lookup
// probes the top and the layers newest first, as keyIndex.get does.
//
// The tag filters the candidates a probe run meets. A probe of one
// table for a key it does not hold confirms at most 0.05 candidates on
// average, and the probe that finds a key at most 1.05, its own and
// hardly another. A whole lookup that misses probes every table, up to
// six here, and confirms at most 0.1. Slots that kept only a position
// would confirm every candidate of every run.
func TestKeyIndexProbeConfirmations(t *testing.T) {
	const leaves, writes, batch = 1000, 64, 64
	keyOf := func(i int) (MVID, temporal.Instant) {
		return lineageLeaf(i % leaves), y(2003) + temporal.Instant(i/leaves)
	}
	for _, months := range []int{36, 144} {
		s := lineageSchema(t, leaves, months)
		r := rand.New(rand.NewSource(int64(months)))
		var missProbes, missReads, hitProbes, hitReads, lookupMisses, lookupMissReads, layers int
		// lookup probes the tables for key i as get does, counting what
		// each probe confirmed, and reports whether the key is stored.
		lookup := func(i int) bool {
			id, at := keyOf(i)
			ft := s.Facts()
			ords, _ := ft.ordinals(nil, Coords{id})
			h := tupleKey(ords, at)
			tables := append([]keyTable{ft.index.top}, ft.index.layers...)
			slices.Reverse(tables[1:])
			reads := 0
			for _, kt := range tables {
				before := reads
				_, ok := kt.find(h, func(pos int) bool {
					reads++
					return ft.holds(pos, ords, at)
				})
				if ok {
					hitProbes++
					hitReads += reads - before
					return true
				}
				missProbes++
				missReads += reads - before
			}
			lookupMisses++
			lookupMissReads += reads
			return false
		}
		stored := leaves * months
		for w := 0; w < writes; w++ {
			s = s.Clone()
			for k := 0; k < batch; k++ {
				if lookup(stored) {
					t.Fatalf("fresh key %d found", stored)
				}
				id, at := keyOf(stored)
				if err := s.InsertFact(Coords{id}, at, 1); err != nil {
					t.Fatal(err)
				}
				stored++
				if !lookup(r.Intn(stored)) {
					t.Fatal("a stored key was not found")
				}
			}
			layers = max(layers, len(s.Facts().index.layers))
		}
		perMiss, perHit := float64(missReads)/float64(missProbes), float64(hitReads)/float64(hitProbes)
		perLookup := float64(lookupMissReads) / float64(lookupMisses)
		t.Logf("%d facts, up to %d layers: a table probe confirms %.4f candidates for a key it lacks, %.4f for one it holds; a missing lookup %.4f",
			stored, layers, perMiss, perHit, perLookup)
		if layers < 3 {
			t.Errorf("the lineage reached %d layers, want a bottom and at least two sealed", layers)
		}
		atMost := func(what string, got, bound float64) {
			if got > bound {
				t.Errorf("%s confirms %.4f candidates, want at most %.2f", what, got, bound)
			}
		}
		atMost("a table probe for a key it lacks", perMiss, 0.05)
		atMost("the table probe that finds a key", perHit, 1.05)
		atMost("a lookup that misses", perLookup, 0.1)
	}
}
