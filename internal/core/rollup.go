package core

import (
	"strconv"
	"strings"
	"sync"

	"mvolap/internal/temporal"
)

// dimDerived is the detachable derived-rollup cache of one dimension
// structure value; see the Dimension.derived field doc. The rollup of a
// fact at instant t reads D(t) only (Definition 3), so the cache is cut
// by instant: a mutation from instant f on leaves every sub-cache
// before f valid.
type dimDerived struct {
	mu        sync.RWMutex
	byInstant map[temporal.Instant]*instDerived
}

// instDerived holds the rollup tables of D(t) for one instant, one per
// level asked for. It may be shared by several generations' dimDerived
// (every generation whose structure agrees at t); whichever generation
// asks first builds the table, under the sub-cache's own lock.
type instDerived struct {
	mu     sync.RWMutex
	tables map[string]*rollupTable
}

// rollupTable is the rollup of every member version of one D(t) to one
// level (Definitions 3 and 4): a level is a function of the member, so
// the ancestors of a member at the level are an array read by the
// member's ordinal. Tables are immutable once built.
type rollupTable struct {
	// up maps a member ordinal to its ancestor set, -1 when the member
	// reaches no member of the level at t (non-covering hierarchy). An
	// ordinal past the end reads as -1 too: a later generation sharing
	// this sub-cache may have appended members, none valid at t.
	up []int32
	// The distinct ancestor sets, flattened: set i is
	// anc[setStart[i]:setStart[i+1]], in the order an upward depth-first
	// walk along the relationships' insertion order meets them. Members
	// may belong to an earlier generation's copies, which is sound
	// because rollup consumes only their content (ID, display name).
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

// at returns the sub-cache of instant t, creating it on first use.
func (der *dimDerived) at(t temporal.Instant) *instDerived {
	der.mu.RLock()
	inst := der.byInstant[t]
	der.mu.RUnlock()
	if inst != nil {
		return inst
	}
	der.mu.Lock()
	defer der.mu.Unlock()
	if inst = der.byInstant[t]; inst == nil {
		if der.byInstant == nil {
			der.byInstant = make(map[temporal.Instant]*instDerived)
		}
		inst = &instDerived{}
		der.byInstant[t] = inst
	}
	return inst
}

// retainBefore returns a new cache sharing the sub-caches of every
// instant before from — O(instants), whatever they hold — and none from
// from on. temporal.Origin shares nothing.
func (der *dimDerived) retainBefore(from temporal.Instant) *dimDerived {
	der.mu.RLock()
	defer der.mu.RUnlock()
	out := &dimDerived{byInstant: make(map[temporal.Instant]*instDerived, len(der.byInstant))}
	for t, inst := range der.byInstant {
		if t < from {
			out.byInstant[t] = inst
		}
	}
	metRollupInstantsCarried.Add(int64(len(out.byInstant)))
	metRollupInstantsDropped.Add(int64(len(der.byInstant) - len(out.byInstant)))
	return out
}

// rollupTableAt returns the rollup of D(at) to the named level, building
// it on first use. A scan fetches it once per (worker, instant) — or
// once per worker when the structure is a static version — never per
// tuple; concurrent first touches of one instant build it once.
func (d *Dimension) rollupTableAt(level string, at temporal.Instant) *rollupTable {
	inst := d.derived.at(at)
	inst.mu.RLock()
	tab := inst.tables[level]
	inst.mu.RUnlock()
	if tab != nil {
		return tab
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if tab = inst.tables[level]; tab == nil {
		tab = d.buildRollupTable(level, at)
		if inst.tables == nil {
			inst.tables = make(map[string]*rollupTable)
		}
		inst.tables[level] = tab
	}
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
		for _, idx := range d.parentRels[d.order[o]] {
			r := &d.rels[idx]
			if !r.Valid.Contains(at) {
				continue
			}
			if p := d.members[r.To]; p != nil && p.ValidAt(at) {
				walk(p.ord)
			}
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
