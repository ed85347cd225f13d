package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

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
	// FactTable); the private copy a replacing Insert takes keeps it.
	ord int
}

// appendFactKey appends the canonical byte key of (coords, t) to dst:
// member version IDs separated by 0x1f, then the instant as 8
// little-endian bytes. Keys are built into reusable buffers and probed
// with map[string(buf)] — the compiler elides that conversion, so
// lookups on the materialization hot path allocate nothing (the string
// is only materialized when a new entry is inserted).
func appendFactKey(dst []byte, c Coords, t temporal.Instant) []byte {
	for _, id := range c {
		dst = append(dst, id...)
		dst = append(dst, 0x1f)
	}
	u := uint64(t)
	return append(dst,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// FactTable is the Temporally Consistent Fact Table f of Definition 5: a
// partial function from leaf member versions and time to measure values.
// It stores source data only; mapped presentations are derived from it
// (see MultiVersionFactTable).
//
// Cloning is copy-on-write: a clone shares the *Fact tuples and the
// frozen layers of the key index with its source, copies only the
// (pointer) fact slice and the index's bounded top, and takes a private
// copy of a tuple the moment a replacing Insert would mutate it.
type FactTable struct {
	measures int
	// facts holds the live tuples in insertion order, which is ordinal
	// order. Every table owns its slice; the tuples are shared.
	facts []*Fact
	// index maps a fact key to the tuple's ordinal, not to its position:
	// a retraction closes up the slice and moves every later tuple, but
	// ordinals never change, so nothing is re-indexed. nextOrd is the
	// ordinal the next new tuple takes.
	index   keyIndex
	nextOrd int
	// Tuples with an ordinal below cowOrd may be shared with other
	// tables; they are copied before any in-place mutation (a replacing
	// Insert). owned marks the ordinals below cowOrd this table has
	// already privatized.
	cowOrd int
	owned  map[int]bool
	keyBuf []byte
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

// Insert adds a fact. Inserting at existing coordinates and time
// replaces the previous values (the fact table is a function); a
// replaced tuple shared with a clone is privatized first.
func (ft *FactTable) Insert(coords Coords, t temporal.Instant, values ...float64) error {
	if len(values) != ft.measures {
		return fmt.Errorf("core: fact with %d values for %d measures", len(values), ft.measures)
	}
	ft.keyBuf = appendFactKey(ft.keyBuf[:0], coords, t)
	if ord, ok := ft.index.get(ft.keyBuf); ok {
		i := ft.position(ord)
		f := ft.facts[i]
		if ord < ft.cowOrd && !ft.owned[ord] {
			f = &Fact{Coords: f.Coords, Time: f.Time, Values: append([]float64(nil), f.Values...), ord: ord}
			ft.facts[i] = f
			if ft.owned == nil {
				ft.owned = make(map[int]bool)
			}
			ft.owned[ord] = true
		}
		copy(f.Values, values)
		return nil
	}
	f := &Fact{Coords: coords.Clone(), Time: t, Values: append([]float64(nil), values...), ord: ft.nextOrd}
	ft.index.put(ft.keyBuf, ft.nextOrd)
	ft.nextOrd++
	ft.facts = append(ft.facts, f)
	return nil
}

// Lookup returns the values at the given coordinates and time. It is
// safe for concurrent use as long as no Insert or Retract runs.
func (ft *FactTable) Lookup(coords Coords, t temporal.Instant) ([]float64, bool) {
	var scratch [64]byte
	key := appendFactKey(scratch[:0], coords, t)
	ord, ok := ft.index.get(key)
	if !ok {
		return nil, false
	}
	return ft.facts[ft.position(ord)].Values, true
}

// Facts returns the stored facts in insertion order. The slice is shared;
// callers must not mutate it.
func (ft *FactTable) Facts() []*Fact { return ft.facts }

// Retract removes the fact at (coords, t), returning the removed tuple
// so the caller can carry it in a Delta: an index lookup, a tombstone,
// and closing up this table's own pointer slice. The tuple itself stays
// shared with any clones (they and the returned pointer still reference
// it; callers must treat it as read-only), and the surviving facts keep
// their insertion order.
func (ft *FactTable) Retract(coords Coords, t temporal.Instant) (*Fact, bool) {
	ft.keyBuf = appendFactKey(ft.keyBuf[:0], coords, t)
	ord, ok := ft.index.get(ft.keyBuf)
	if !ok {
		return nil, false
	}
	i := ft.position(ord)
	f := ft.facts[i]
	ft.facts = slices.Delete(ft.facts, i, i+1)
	ft.index.delete(ft.keyBuf)
	return f, true
}

// factCloneHeadroom is the spare capacity a clone's fact slice starts
// with, so the batch a write appends to it does not copy the whole
// slice a second time.
const factCloneHeadroom = 1024

// Clone returns a copy-on-write copy of the fact table. Fact tuples
// are shared until one side replaces values at existing coordinates
// (which privatizes just that tuple), so cloning costs one pointer
// slice copy plus the bounded top of the key index instead of a deep
// copy of every fact. Inserts and retractions on either table never
// reach through to the other. Not safe concurrently with Insert or
// Retract on the receiver.
func (ft *FactTable) Clone() *FactTable {
	out := &FactTable{
		measures: ft.measures,
		facts:    make([]*Fact, len(ft.facts), len(ft.facts)+factCloneHeadroom),
		index:    ft.index.clone(ft.nextOrd),
		nextOrd:  ft.nextOrd,
		cowOrd:   ft.nextOrd,
	}
	copy(out.facts, ft.facts)
	// The receiver no longer exclusively owns the shared tuples either:
	// a replacing Insert on it must privatize before mutating.
	ft.cowOrd = ft.nextOrd
	ft.owned = nil
	return out
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
