package core

import (
	"fmt"
	"slices"

	"mvolap/internal/temporal"
)

// Coords addresses one cell of the fact table: one leaf member version
// per dimension, in schema dimension order.
type Coords []MVID

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
// measure. The fact table does not store Facts; it hands them out as
// views of its columns.
type Fact struct {
	Coords Coords
	Time   temporal.Instant
	Values []float64
}

// FactTable is the Temporally Consistent Fact Table f of Definition 5: a
// partial function from leaf member versions and time to measure values.
//
// Definition 11 gives f'|tcm = f × {sd}^m, so the fact table is stored
// as tcm's MappedTable and MultiVersion().Mode(TCM()) returns that very
// table: member version ordinals, instants and values in sharded
// columns, every confidence sd and every source count 1, with the one
// hashed key index checked against the columns. A tuple's position is
// its insertion ordinal. A replacing Insert writes the slot's values; a
// Retract tombstones the slot, so a re-inserted key appends afresh.
//
// Cloning is the mapped tables' copy-on-write: a clone shares every
// shard and the frozen layers of the key index, and a write into a slot
// another generation may read privatizes that one shard first (see
// MappedTable.writableShard); an append claims the tail's next slot
// (MappedTable.tailShard).
type FactTable MappedTable

// newFactTable returns an empty fact table over the schema's dimensions
// and measures.
func newFactTable(s *Schema) *FactTable {
	return (*FactTable)(newMappedTable(s, TCM(), 0))
}

// table returns the fact table as tcm's mapped table.
func (ft *FactTable) table() *MappedTable { return (*MappedTable)(ft) }

// Measures reports the number of measures per fact.
func (ft *FactTable) Measures() int { return ft.nm }

// Len reports the number of stored facts.
func (ft *FactTable) Len() int { return ft.table().Len() }

// KeyIndexWork reports the key-index maintenance the table has paid
// since it was cloned: layers sealed, and entries rewritten by layer
// merges and flattens — the one part of a write that is not O(batch),
// so a merged count in the order of the table size names a flatten.
func (ft *FactTable) KeyIndexWork() (sealed, merged int) { return ft.index.sealed, ft.index.merged }

// End returns the position the next appended fact takes: the mark
// Since reads a write's appended suffix from.
func (ft *FactTable) End() int { return ft.n }

// Insert adds a fact. Inserting at existing coordinates and time
// replaces the previous values (the fact table is a function) in their
// slot. Every coordinate must name a member version of its dimension.
func (ft *FactTable) Insert(coords Coords, t temporal.Instant, values ...float64) error {
	if len(values) != ft.nm {
		return fmt.Errorf("core: fact with %d values for %d measures", len(values), ft.nm)
	}
	var buf [8]int32
	mt := ft.table()
	ords, ok := mt.ordinals(buf[:0], coords)
	if !ok {
		return fmt.Errorf("core: fact coordinates %v not in the schema's dimensions", coords)
	}
	h := tupleKey(ords, t)
	if pos, ok := mt.find(h, ords, t); ok {
		nm, j := ft.nm, pos&shardMask
		sh := mt.writableShard(pos>>shardShift, j)
		copy(sh.values[j*nm:(j+1)*nm], values)
		if sh.avgN != nil {
			for k, v := range values {
				sh.avgN[j*nm+k] = avgCount(v)
			}
		}
	} else {
		mt.appendTuple(h, ords, t, values, make([]Confidence, ft.nm))
	}
	ft.view.Store(nil)
	return nil
}

// Lookup returns the values at the given coordinates and time, valid
// until the table's next write. It is safe for concurrent use as long
// as no Insert or Retract runs.
func (ft *FactTable) Lookup(coords Coords, t temporal.Instant) ([]float64, bool) {
	pos, ok := ft.table().locate(coords, t)
	if !ok {
		return nil, false
	}
	sh, j := ft.table().shardAt(pos)
	nm := ft.nm
	return sh.values[j*nm : (j+1)*nm : (j+1)*nm], true
}

// All yields the stored facts in insertion order, translating each
// tuple's ordinals back to member version IDs; it stops when yield
// returns false. The yielded Fact is the walk's scratch: its fields are
// valid only until yield returns.
func (ft *FactTable) All(yield func(*Fact) bool) {
	mt := ft.table()
	nd, nm := mt.nd, mt.nm
	f := &Fact{Coords: make(Coords, nd)}
	mt.each(0, func(sh *factShard, j int) bool {
		mt.ids(f.Coords, sh.coords[j*nd:(j+1)*nd])
		f.Time = sh.times[j]
		f.Values = sh.values[j*nm : (j+1)*nm : (j+1)*nm]
		return yield(f)
	})
}

// Facts returns a fresh view of the stored facts in insertion order,
// built on every call and never cached: it is O(facts), and a write
// reads its appended suffix through Since instead. The slice has no
// spare capacity and no fact aliases the table.
func (ft *FactTable) Facts() []*Fact { return ft.Since(0) }

// Since returns a fresh view of the live facts stored at or past
// position mark, in insertion order: with mark taken from End before a
// batch, the facts the batch appended. It costs O(suffix).
func (ft *FactTable) Since(mark int) []*Fact {
	mt := ft.table()
	nd, nm, size := mt.nd, mt.nm, max(mt.n-mark, 0)
	arena := make([]Fact, 0, size)
	coords := make(Coords, size*nd)
	values := make([]float64, size*nm)
	mt.each(mark, func(sh *factShard, j int) bool {
		i := len(arena)
		c := coords[i*nd : (i+1)*nd : (i+1)*nd]
		mt.ids(c, sh.coords[j*nd:(j+1)*nd])
		v := values[i*nm : (i+1)*nm : (i+1)*nm]
		copy(v, sh.values[j*nm:(j+1)*nm])
		arena = append(arena, Fact{Coords: c, Time: sh.times[j], Values: v})
		return true
	})
	out := make([]*Fact, len(arena))
	for i := range arena {
		out[i] = &arena[i]
	}
	return out
}

// Retract removes the fact at (coords, t), returning a copy of the
// removed tuple so the caller can carry it in a Delta: an index lookup
// and a tombstone in the slot, whose shard is privatized first when
// another generation may read it, as on the first retraction after a
// Clone. The surviving facts keep their insertion order.
func (ft *FactTable) Retract(coords Coords, t temporal.Instant) (*Fact, bool) {
	mt := ft.table()
	pos, ok := mt.locate(coords, t)
	if !ok {
		return nil, false
	}
	sh, j := mt.shardAt(pos)
	nm := ft.nm
	f := &Fact{Coords: coords.Clone(), Time: t, Values: slices.Clone(sh.values[j*nm : (j+1)*nm])}
	mt.tombstone(pos)
	sh = mt.shards[pos>>shardShift]
	sh.zone.Store(buildZone(sh, mt.nd))
	ft.view.Store(nil)
	return f, true
}

// clone returns a copy-on-write copy of the fact table over the
// schema's dimensions, in O(1) plus the bounded top of the key index
// (MappedTable.clone). The receiver takes a fresh epoch and
// shares its list of shard headers too, so neither table writes a
// shard, or a list, the other reads.
//
// clone writes the receiver's ownership state: it needs the writer's
// exclusion, not the readers'. A published table is never written.
func (ft *FactTable) clone(s *Schema) *FactTable {
	out := ft.table().clone(s)
	ft.epoch = shardEpochCounter.Add(1)
	ft.shardsShared, ft.ordShared = true, true
	return (*FactTable)(out)
}
