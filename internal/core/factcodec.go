package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"mvolap/internal/temporal"
)

// Facts codec: the fact table's own columns as one binary payload, the
// facts section of the store's snapshot container. A coordinate is the
// member version ordinal the table stores: the structure section,
// written first, adds each dimension's versions in its order, so a
// reloaded schema numbers them the same way. Live tuples travel in
// position order — the fold order of every query and every
// presentation of a mode, so a warehouse reloaded from here answers bit
// for bit as the one written — and tombstoned slots are not written.
// Nothing passes through text: instants are raw int64 (Now and Origin
// survive), values are Float64bits (NaN payloads survive).
//
//	magic "MVFC02"
//	uvarint numDims, uvarint numMeasures, uvarint numFacts
//	numFacts×numDims uvarint member version ordinals
//	numFacts int64 LE instants
//	numFacts×numMeasures uint64 LE Float64bits values

var factsMagic = []byte("MVFC02")

// EncodeFacts serializes the schema's live facts deterministically,
// one walk over the shards per column.
func EncodeFacts(s *Schema) []byte {
	ft := s.facts
	nd, nm, n := ft.nd, ft.nm, ft.Len()
	// An upper bound (an int32 ordinal is at most 5 uvarint bytes), so
	// the buffer is allocated once.
	buf := make([]byte, 0, len(factsMagic)+3*binary.MaxVarintLen64+n*(binary.MaxVarintLen32*nd+8+8*nm))
	buf = append(buf, factsMagic...)
	buf = binary.AppendUvarint(buf, uint64(nd))
	buf = binary.AppendUvarint(buf, uint64(nm))
	buf = binary.AppendUvarint(buf, uint64(n))
	ft.each(func(sh *factShard, j int) bool {
		for _, o := range sh.coords[j*nd : (j+1)*nd] {
			buf = binary.AppendUvarint(buf, uint64(o))
		}
		return true
	})
	ft.each(func(sh *factShard, j int) bool {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(sh.times[j]))
		return true
	})
	ft.each(func(sh *factShard, j int) bool {
		for _, v := range sh.values[j*nm : (j+1)*nm] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		return true
	})
	return buf
}

// DecodeFacts appends the encoded facts to s's fact table in their
// encoded order, refusing the payload unless it frames exactly, its
// widths are the schema's, and every fact is one Insert would take: an
// ordinal of a member version of its dimension, valid at the fact's
// instant (Definition 5), at a key the table does not hold yet.
// Appending through the table's own key index keeps the index, the zone
// maps and the ordinal stats as Insert builds them. On error s is
// partly loaded and must be discarded.
func DecodeFacts(data []byte, s *Schema) error {
	if !bytes.HasPrefix(data, factsMagic) {
		return fmt.Errorf("core: facts: not an %s payload (magic %q)", factsMagic, data[:min(len(data), len(factsMagic))])
	}
	ft := s.facts
	data = data[len(factsMagic):]
	var head [3]uint64
	for i := range head {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return fmt.Errorf("core: facts: bad header")
		}
		head[i], data = v, data[k:]
	}
	nd, nm, n := head[0], head[1], head[2]
	if nd != uint64(ft.nd) || nm != uint64(ft.nm) {
		return fmt.Errorf("core: facts: %d coordinates and %d values per fact, the schema has %d and %d", nd, nm, ft.nd, ft.nm)
	}
	// A fact costs at least one byte per ordinal plus its fixed-width
	// instant and values (divided, not multiplied: n is untrusted).
	if n > uint64(len(data))/(nd+8+8*nm) {
		return fmt.Errorf("core: facts: %d bytes cannot hold %d facts", len(data), n)
	}
	// valid[i][o] is the valid time of ordinal o of dimension i.
	valid := make([][]temporal.Interval, ft.nd)
	for i, d := range ft.dims {
		valid[i] = make([]temporal.Interval, len(d.order))
		for o, id := range d.order {
			valid[i][o] = d.members[id].Valid
		}
	}
	coords := data
	for k := uint64(0); k < n*nd; k++ {
		_, w := binary.Uvarint(data)
		if w <= 0 {
			return fmt.Errorf("core: facts: bad ordinal %d", k)
		}
		data = data[w:]
	}
	coords = coords[:len(coords)-len(data)]
	if uint64(len(data)) != n*(8+8*nm) {
		return fmt.Errorf("core: facts: %d bytes after the ordinals, want %d", len(data), n*(8+8*nm))
	}
	times, vals := data[:n*8], data[n*8:]
	ords := make([]int32, ft.nd)
	values := make([]float64, ft.nm)
	for f := 0; f < int(n); f++ {
		t := temporal.Instant(binary.LittleEndian.Uint64(times[f*8:]))
		for i := range ords {
			o, w := binary.Uvarint(coords)
			coords = coords[w:]
			if o >= uint64(len(valid[i])) {
				return fmt.Errorf("core: facts: fact %d: ordinal %d past the %d versions of dimension %s", f, o, len(valid[i]), ft.dims[i].ID)
			}
			if !valid[i][o].Contains(t) {
				return fmt.Errorf("core: facts: fact %d: coordinate %q not valid at %s (valid %v)", f, ft.dims[i].order[o], t, valid[i][o])
			}
			ords[i] = int32(o)
		}
		for k := range values {
			values[k] = math.Float64frombits(binary.LittleEndian.Uint64(vals[(f*ft.nm+k)*8:]))
		}
		h := tupleKey(ords, t)
		if _, dup := ft.find(h, ords, t); dup {
			return fmt.Errorf("core: facts: fact %d repeats the key of an earlier one", f)
		}
		ft.appendTuple(h, ords, t, values)
	}
	return nil
}
