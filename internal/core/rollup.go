package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mvolap/internal/temporal"
)

// dimDerived is the derived state of one dimension structure value: its
// version chain and the rollup tables hanging off the chain's entries.
// Clone shares it — a clone's structure is content-identical to its
// base until mutated — and every mutation moves the mutated dimension
// onto a new one (notifyMutate), so readers of still-shared generations
// keep one warm chain.
type dimDerived struct {
	mu    sync.Mutex // serializes the sweep and guards prev
	chain atomic.Pointer[[]chainEntry]
	// prev is the chain of the generation whose tables the first sweep
	// takes over by hash; the sweep drops it.
	prev []chainEntry
}

// chainEntry is one element of a dimension's version chain: a maximal
// interval over which D(t) holds the same member versions and
// relationships, so one set hash and one set of rollup tables.
type chainEntry struct {
	valid  temporal.Interval
	hash   setHash
	tables *entryTables
}

// entryTables holds the rollup tables of one D(t), by level name, one
// per level asked for, and its resolution table under the latest
// mapping graph asked for (resolveTableAt). Every chain entry with the
// same hash shares it, in this chain and in the lineage's later ones;
// whichever reader asks first builds a table, under the lock.
type entryTables struct {
	mu      sync.Mutex
	levels  sync.Map
	resolve atomic.Pointer[resolveTable]
}

// setHash is an order-independent 128-bit hash of a set: per 64-bit
// lane, the sum of its elements' digests, so adding an element's digest
// where it starts and subtracting it after it ends keeps the hash of
// D(t) along the time axis. It is the same in every process, so a
// signature means the same structure wherever it is compared.
type setHash struct{ hi, lo uint64 }

// sweep derives the dimension's version chain in one pass over the
// endpoints of its member versions and relationships (Definition 9 per
// dimension). The hash covers each member version's ID and Level tag,
// each relationship's child and parent, and the dimension's level regime
// of Definition 4 — one unlevelled member renames every level at every
// instant, so it changes every entry's hash. Instants where the
// dimension holds nothing belong to no entry.
func (d *Dimension) sweep() []chainEntry {
	// An element's digest is the first 128 bits of the SHA-256 of its
	// parts, each followed by a NUL byte. A sum of digests is only as
	// collision-free as the digests are unrelated, which a checksum's are
	// not: FNV-1a digests of strings one byte apart are arithmetically
	// related, and their sums over different structures collided often
	// enough for the scan's property test to find.
	digest := func(elem string) setHash {
		sum := sha256.Sum256([]byte(elem))
		return setHash{binary.BigEndian.Uint64(sum[:8]), binary.BigEndian.Uint64(sum[8:16])}
	}
	type event struct {
		at    temporal.Instant
		elem  setHash
		delta int
	}
	events := make([]event, 0, 2*(len(d.order)+len(d.rels)))
	add := func(iv temporal.Interval, elem setHash) {
		events = append(events, event{iv.Start, elem, 1})
		if iv.End != temporal.Now {
			events = append(events, event{iv.End.Next(), setHash{-elem.hi, -elem.lo}, -1})
		}
	}
	for _, id := range d.order {
		add(d.members[id].Valid, digest("member\x00"+string(id)+"\x00"+d.members[id].Level+"\x00"))
	}
	for _, r := range d.rels {
		add(r.Valid, digest("edge\x00"+string(r.From)+"\x00"+string(r.To)+"\x00"))
	}
	slices.SortFunc(events, func(a, b event) int { return cmp.Compare(a.at, b.at) })

	h, held := digest("explicit levels\x00"+strconv.FormatBool(d.HasExplicitLevels())+"\x00"), 0
	var chain []chainEntry
	for i := 0; i < len(events); {
		at := events[i].at
		for ; i < len(events) && events[i].at == at; i++ {
			h, held = setHash{h.hi + events[i].elem.hi, h.lo + events[i].elem.lo}, held+events[i].delta
		}
		if n := len(chain); n > 0 && chain[n-1].valid.End == temporal.Now {
			if held > 0 && chain[n-1].hash == h {
				continue // nothing changed: the open entry goes on
			}
			chain[n-1].valid.End = at.Prev()
		}
		if held > 0 {
			chain = append(chain, chainEntry{valid: temporal.Since(at), hash: h})
		}
	}
	return chain
}

// chain returns the dimension's version chain, sweeping it on first use
// after a mutation. The new chain's entries take the rollup tables of
// the previous generation's entries with the same hash and drop the
// rest. That is sound because equal hashes mean the same member versions
// and relationships, rollup reads a member's ID, display name and
// ordinal only, ordinals are append-only within a lineage, and a walk up
// D(t) visits parents in member order (Dimension.ParentsAt).
func (d *Dimension) chain() []chainEntry {
	der := d.derived
	if c := der.chain.Load(); c != nil {
		return *c
	}
	der.mu.Lock()
	defer der.mu.Unlock()
	if c := der.chain.Load(); c != nil {
		return *c
	}
	chain := d.sweep()
	tables := map[setHash]*entryTables{}
	for _, e := range der.prev {
		tables[e.hash] = e.tables
	}
	for i := range chain {
		if chain[i].tables = tables[chain[i].hash]; chain[i].tables == nil {
			chain[i].tables = &entryTables{}
			tables[chain[i].hash] = chain[i].tables
		}
	}
	der.prev = nil
	der.chain.Store(&chain)
	metStructureVersionsRecomputed.With(string(d.ID)).Add(int64(len(chain)))
	return chain
}

// entryAt returns the entry of the chain holding t, or nil.
func entryAt(chain []chainEntry, t temporal.Instant) *chainEntry {
	i := sort.Search(len(chain), func(i int) bool { return chain[i].valid.End >= t })
	if i < len(chain) && chain[i].valid.Contains(t) {
		return &chain[i]
	}
	return nil
}

// rollupTable is the rollup of every member version of one D(t) to one
// level (Definitions 3 and 4): a level is a function of the member, so
// the ancestors of a member at the level are an array read by the
// member's ordinal. Tables are immutable once built.
type rollupTable struct {
	// up maps a member ordinal to its ancestor set, -1 when the member
	// reaches no member of the level at t (non-covering hierarchy). An
	// ordinal past the end reads as -1 too: a later generation sharing
	// this table has the same D(t), so the members it appended are not
	// valid at t.
	up []int32
	// The distinct ancestor sets, flattened: set i is
	// anc[setStart[i]:setStart[i+1]], in the order an upward depth-first
	// walk, parents in member order, meets them. Members may belong to an
	// earlier generation's copies, which is sound because rollup consumes
	// only their content (ID, display name, ordinal).
	setStart []int32
	anc      []*MemberVersion
}

// setOf returns the bounds in anc of the ancestor set of the member with
// the given ordinal; lo == hi when it has none. The ordinal must come
// from the lineage the table was built in.
func (tab *rollupTable) setOf(ord int32) (lo, hi int32) {
	if int(ord) >= len(tab.up) {
		return 0, 0
	}
	si := tab.up[ord]
	if si < 0 {
		return 0, 0
	}
	return tab.setStart[si], tab.setStart[si+1]
}

// emptyRollup is the rollup of an instant where the dimension holds
// nothing: every member reaches no ancestor.
var emptyRollup = &rollupTable{setStart: []int32{0}}

// rollupTableAt returns the rollup of D(at) to the named level: the
// table of the chain entry holding at, built on first use at the
// entry's start, since D is constant over it. A scan fetches it once per
// instant — or once when the structure is a static version — never per
// tuple; concurrent queries first touching one entry build it once.
func (d *Dimension) rollupTableAt(level string, at temporal.Instant) *rollupTable {
	entry := entryAt(d.chain(), at)
	if entry == nil {
		return emptyRollup
	}
	if tab, ok := entry.tables.levels.Load(level); ok {
		return tab.(*rollupTable)
	}
	entry.tables.mu.Lock()
	defer entry.tables.mu.Unlock()
	if tab, ok := entry.tables.levels.Load(level); ok {
		return tab.(*rollupTable)
	}
	tab := d.buildRollupTable(level, entry.valid.Start)
	entry.tables.levels.Store(level, tab)
	return tab
}

// buildRollupTable walks upward from every member version of the
// dimension in D(at), stopping at the members valid at `at` that sit at
// the level (Definition 4: the explicit tag when every version carries
// one, "depth-N" by DAG depth otherwise).
func (d *Dimension) buildRollupTable(level string, at temporal.Instant) *rollupTable {
	n := len(d.order)
	atLevel := make([]bool, n)
	if d.HasExplicitLevels() {
		for i, id := range d.order {
			mv := d.members[id]
			atLevel[i] = mv.Level == level && mv.ValidAt(at)
		}
	} else if depth, ok := parseDepthLevel(level); ok {
		// One shared depth memo across the members: each walk reuses the
		// ancestors already resolved by earlier ones.
		memo := make(map[MVID]int)
		for i, id := range d.order {
			if !d.members[id].ValidAt(at) {
				continue
			}
			dep, ok := d.depthAt(id, at, memo)
			atLevel[i] = ok && dep == depth
		}
	}

	tab := &rollupTable{up: make([]int32, n), setStart: []int32{0}}
	// visited[o] == pass marks ordinal o as seen by the current walk.
	visited := make([]int, n)
	pass := 0
	var found []int32
	var walk func(o int32)
	walk = func(o int32) {
		if visited[o] == pass {
			return
		}
		visited[o] = pass
		if atLevel[o] {
			found = append(found, o)
			return
		}
		for _, p := range d.ParentsAt(d.order[o], at) {
			walk(p.ord)
		}
	}
	// Sets repeat (every leaf of a division rolls up to it), so they are
	// stored once: one-member sets are told apart by that member's
	// ordinal, the rare larger ones by their ordinal sequence.
	single := make([]int32, n)
	var multi map[string]int32
	var key []byte
	for o := 0; o < n; o++ {
		pass++
		found = found[:0]
		walk(int32(o))
		if len(found) == 0 {
			tab.up[o] = -1
			continue
		}
		var si int32
		var known bool
		if len(found) == 1 {
			si, known = single[found[0]]-1, single[found[0]] != 0
		} else {
			key = key[:0]
			for _, a := range found {
				key = strconv.AppendInt(key, int64(a), 10)
				key = append(key, ',')
			}
			si, known = multi[string(key)]
		}
		if !known {
			si = int32(len(tab.setStart) - 1)
			for _, a := range found {
				tab.anc = append(tab.anc, d.members[d.order[a]])
			}
			tab.setStart = append(tab.setStart, int32(len(tab.anc)))
			if len(found) == 1 {
				single[found[0]] = si + 1
			} else {
				if multi == nil {
					multi = make(map[string]int32)
				}
				multi[string(key)] = si
			}
		}
		tab.up[o] = si
	}
	metRollupTablesBuilt.With(string(d.ID)).Inc()
	return tab
}

// parseDepthLevel parses a derived level name "depth-N" exactly as
// LevelsAt renders it.
func parseDepthLevel(level string) (int, bool) {
	digits, ok := strings.CutPrefix(level, "depth-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 || strconv.Itoa(n) != digits {
		return 0, false
	}
	return n, true
}

// hasLevel reports whether the named level can exist in the dimension at
// any instant: some member version carries the tag when every version is
// tagged, and the name has the derived form "depth-N" otherwise
// (Definition 4).
func (d *Dimension) hasLevel(level string) bool {
	found := false
	for _, id := range d.order {
		switch d.members[id].Level {
		case "":
			_, ok := parseDepthLevel(level)
			return ok
		case level:
			found = true
		}
	}
	return found
}
