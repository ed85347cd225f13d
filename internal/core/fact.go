package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"mvolap/internal/temporal"
)

// Coords addresses one cell of the fact table: one leaf member version
// per dimension, in schema dimension order.
type Coords []MVID

// Key returns a canonical string key for the coordinate vector.
func (c Coords) Key() string {
	parts := make([]string, len(c))
	for i, id := range c {
		parts[i] = string(id)
	}
	return strings.Join(parts, "\x1f")
}

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
// measure.
type Fact struct {
	Coords Coords
	Time   temporal.Instant
	Values []float64
	// ord is the tuple's insertion ordinal in its table's lineage (see
	// FactTable); the tuple a replacing Insert stores in its slot keeps it.
	ord int
}

// factKey hashes the key (coords, t) of a source fact for the key
// index: every member version ID, then the instant.
func factKey(c Coords, t temporal.Instant) uint64 {
	h := keyHashSeed
	for _, id := range c {
		h = h.id(id)
	}
	return h.at(t)
}

// FactTable is the Temporally Consistent Fact Table f of Definition 5: a
// partial function from leaf member versions and time to measure values.
// It stores source data only; mapped presentations are derived from it
// (see MultiVersionFactTable).
//
// Cloning is copy-on-write: a clone shares the *Fact tuples, the
// backing array of the pointer list and the frozen layers of the key
// index with its source and copies only the index's bounded top. A
// stored tuple is never written: a replacing Insert stores a fresh one.
// Successive generations append to one backing array (see push).
type FactTable struct {
	measures int
	// facts holds the live tuples in insertion order, which is ordinal
	// order. Its backing array may be shared with other tables: slots
	// below shared may be read by them, so a write there copies the list
	// first, and a slot at or past the length is written only after it
	// is claimed (claim counts the slots of the array some table has
	// spoken for; every table over the array holds the same counter).
	facts  []*Fact
	claim  *atomic.Int64
	shared int
	// index maps a fact key to the tuple's ordinal, not to its position:
	// a retraction closes up the slice and moves every later tuple, but
	// ordinals never change, so nothing is re-indexed. nextOrd is the
	// ordinal the next new tuple takes.
	index   keyIndex
	nextOrd int
}

// NewFactTable creates an empty fact table for m measures.
func NewFactTable(measures int) *FactTable {
	return &FactTable{measures: measures, index: newKeyIndex(0)}
}

// Measures reports the number of measures per fact.
func (ft *FactTable) Measures() int { return ft.measures }

// Len reports the number of stored facts.
func (ft *FactTable) Len() int { return len(ft.facts) }

// position returns where the live tuple with the given ordinal sits in
// facts. Only retractions move a tuple off facts[ord], each by one slot
// to the left, so the binary search spans as many slots as the lineage
// has retracted tuples — none at all on an insert-only table.
func (ft *FactTable) position(ord int) int {
	lo := max(0, ord-(ft.nextOrd-len(ft.facts)))
	hi := min(ord, len(ft.facts)-1)
	return lo + sort.Search(hi-lo, func(i int) bool { return ft.facts[lo+i].ord >= ord })
}

// find returns the ordinal of the live tuple at (coords, t), whose key
// hashes to h: the index's candidates are confirmed against the tuples.
func (ft *FactTable) find(h uint64, coords Coords, t temporal.Instant) (int, bool) {
	return ft.index.get(h, func(ord int) bool {
		f := ft.facts[ft.position(ord)]
		return f.Time == t && f.Coords.Equal(coords)
	})
}

// Insert adds a fact. Inserting at existing coordinates and time
// replaces the previous values (the fact table is a function): a fresh
// tuple takes the old one's slot, so a stored tuple is never written.
func (ft *FactTable) Insert(coords Coords, t temporal.Instant, values ...float64) error {
	if len(values) != ft.measures {
		return fmt.Errorf("core: fact with %d values for %d measures", len(values), ft.measures)
	}
	h := factKey(coords, t)
	if ord, ok := ft.find(h, coords, t); ok {
		i := ft.position(ord)
		if i < ft.shared {
			ft.copyFacts("replace")
		}
		old := ft.facts[i]
		ft.facts[i] = &Fact{Coords: old.Coords, Time: old.Time, Values: append([]float64(nil), values...), ord: ord}
		return nil
	}
	f := &Fact{Coords: coords.Clone(), Time: t, Values: append([]float64(nil), values...), ord: ft.nextOrd}
	ft.index.put(h, ft.nextOrd)
	ft.nextOrd++
	ft.push(f)
	return nil
}

// push appends f. The slot at the list's length lies past every other
// table's view of the backing array, so f is stored there in place once
// this table wins the claim on it (n → n+1); a sibling generation that
// claimed the slot first, or a full array, makes it copy instead.
func (ft *FactTable) push(f *Fact) {
	n := len(ft.facts)
	switch {
	case n == cap(ft.facts):
		ft.copyFacts("full")
	case !ft.claim.CompareAndSwap(int64(n), int64(n+1)):
		ft.copyFacts("claim_lost")
	default:
		ft.facts = append(ft.facts, f)
		return
	}
	ft.claim.Add(1)
	ft.facts = append(ft.facts, f)
}

// factListHeadroom is the least spare capacity a copied pointer list
// gets; beyond it the headroom grows with the table (a quarter), so the
// appends of many writes share one copy.
const factListHeadroom = 1024

// copyFacts gives the table a private copy of its pointer list with
// headroom and a fresh claim on it, counted under reason. The tuples
// stay shared.
func (ft *FactTable) copyFacts(reason string) {
	n := len(ft.facts)
	facts := make([]*Fact, n, n+max(n/4, factListHeadroom))
	copy(facts, ft.facts)
	ft.facts = facts
	ft.claim = new(atomic.Int64)
	ft.claim.Store(int64(n))
	ft.shared = 0
	metFactListCopies.With(reason).Inc()
}

// Lookup returns the values at the given coordinates and time. It is
// safe for concurrent use as long as no Insert or Retract runs.
func (ft *FactTable) Lookup(coords Coords, t temporal.Instant) ([]float64, bool) {
	ord, ok := ft.find(factKey(coords, t), coords, t)
	if !ok {
		return nil, false
	}
	return ft.facts[ft.position(ord)].Values, true
}

// Facts returns the stored facts in insertion order. The slice is shared
// and has no spare capacity, so an append by the caller copies instead
// of writing into slots the table, or a clone of it, appends to next;
// callers must not mutate its elements.
func (ft *FactTable) Facts() []*Fact { return ft.facts[:len(ft.facts):len(ft.facts)] }

// Retract removes the fact at (coords, t), returning the removed tuple
// so the caller can carry it in a Delta: an index lookup, a tombstone,
// and closing up the pointer list — copied first when the slot is below
// the shared length, as it is on the first retraction after a Clone.
// The tuple itself stays shared with any clones (they and the returned
// pointer still reference it; callers must treat it as read-only), and
// the surviving facts keep their insertion order.
func (ft *FactTable) Retract(coords Coords, t temporal.Instant) (*Fact, bool) {
	h := factKey(coords, t)
	ord, ok := ft.find(h, coords, t)
	if !ok {
		return nil, false
	}
	i := ft.position(ord)
	f := ft.facts[i]
	if i < ft.shared {
		ft.copyFacts("retract")
	}
	ft.facts = slices.Delete(ft.facts, i, i+1)
	// Every slot from shared up was claimed by this table, so the claim
	// stands at the old length; hand the freed slot back.
	ft.claim.Store(int64(len(ft.facts)))
	ft.index.delete(h, ord)
	return f, true
}

// Clone returns a copy-on-write copy of the fact table in O(1) plus the
// bounded top of the key index: both tables share the tuples and the
// pointer list's backing array. Tuples are never written; a write to a
// slot below the shared length (a replacing Insert, a Retract) copies
// the list first, and an append claims its slot (see push). Inserts and
// retractions on either table never reach through to the other.
//
// Clone writes the receiver's shared length: it needs the writer's
// exclusion, not the readers'. A published table is never written.
func (ft *FactTable) Clone() *FactTable {
	n := len(ft.facts)
	// The receiver no longer exclusively owns the list's first n slots.
	ft.shared = n
	return &FactTable{
		measures: ft.measures,
		facts:    ft.facts,
		claim:    ft.claim,
		shared:   n,
		index:    ft.index.clone(ft.nextOrd),
		nextOrd:  ft.nextOrd,
	}
}

// Times returns the sorted distinct instants present in the table.
func (ft *FactTable) Times() []temporal.Instant {
	seen := make(map[temporal.Instant]bool)
	var out []temporal.Instant
	for _, f := range ft.facts {
		if !seen[f.Time] {
			seen[f.Time] = true
			out = append(out, f.Time)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TimeSpan returns the hull of all fact instants, empty when the table
// has no facts.
func (ft *FactTable) TimeSpan() temporal.Interval {
	times := ft.Times()
	if len(times) == 0 {
		return temporal.Interval{Start: 1, End: 0}
	}
	return temporal.Between(times[0], times[len(times)-1])
}
