package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

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
// Nothing passes through text: an instant is its difference from the
// instant before it (the first from 0), taken in wrapping int64
// arithmetic so that every pair of instants — Origin then Now included —
// has one, and written as a zigzag uvarint, so a store loaded member by
// member, which steps one month a fact, pays one byte an instant; values
// are Float64bits (NaN payloads survive).
//
//	magic "MVFC03"
//	uvarint numDims, uvarint numMeasures, uvarint numFacts
//	numFacts×numDims uvarint member version ordinals
//	numFacts zigzag uvarint instant deltas, in tuple order
//	numFacts×numMeasures uint64 LE Float64bits values

var factsMagic = []byte("MVFC03")

// ErrFactsVersion refuses a facts payload in an earlier version of the
// codec: one format is read, the one written.
var ErrFactsVersion = errors.New("core: facts: payload in an earlier facts codec; this build reads only MVFC03")

// FactsLen returns the length of the facts payload of s: one walk over
// the live tuples, summing the varints of their ordinals and instant
// deltas.
func FactsLen(s *Schema) int {
	ft := s.facts
	nd, nm, n := ft.nd, ft.nm, ft.Len()
	size := len(factsMagic) + uvarintLen(uint64(nd)) + uvarintLen(uint64(nm)) + uvarintLen(uint64(n)) + n*8*nm
	var prev temporal.Instant
	ft.each(func(sh *factShard, j int) bool {
		for _, o := range sh.coords[j*nd : (j+1)*nd] {
			size += uvarintLen(uint64(o))
		}
		t := sh.at(j)
		size += uvarintLen(zigzag(t - prev))
		prev = t
		return true
	})
	return size
}

// factsChunk is the size of the buffer WriteFacts encodes through.
const factsChunk = 32 << 10

// WriteFacts writes the facts payload of s, FactsLen(s) bytes, to w:
// the schema's live facts, deterministically, one walk over the shards
// per column, encoded through a buffer of factsChunk bytes, so that a
// snapshot streams its facts section and never holds it whole. It
// returns w's first error.
func WriteFacts(w io.Writer, s *Schema) error {
	ft := s.facts
	nd, nm, n := ft.nd, ft.nm, ft.Len()
	// The most one tuple adds to a column: its ordinals, its instant's
	// delta or its values.
	most := max(binary.MaxVarintLen32*nd, binary.MaxVarintLen64, 8*nm)
	buf := make([]byte, 0, max(factsChunk, most))
	var err error
	flush := func() {
		if err == nil {
			_, err = w.Write(buf)
		}
		buf = buf[:0]
	}
	room := func() bool {
		if len(buf)+most > cap(buf) {
			flush()
		}
		return err == nil
	}
	buf = append(buf, factsMagic...)
	buf = binary.AppendUvarint(buf, uint64(nd))
	buf = binary.AppendUvarint(buf, uint64(nm))
	buf = binary.AppendUvarint(buf, uint64(n))
	ft.each(func(sh *factShard, j int) bool {
		for _, o := range sh.coords[j*nd : (j+1)*nd] {
			buf = binary.AppendUvarint(buf, uint64(o))
		}
		return room()
	})
	var prev temporal.Instant
	ft.each(func(sh *factShard, j int) bool {
		t := sh.at(j)
		buf = binary.AppendUvarint(buf, zigzag(t-prev))
		prev = t
		return room()
	})
	ft.each(func(sh *factShard, j int) bool {
		for _, v := range sh.values[j*nm : (j+1)*nm] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		return room()
	})
	flush()
	return err
}

// EncodeFacts returns the facts payload of s in one buffer of exactly
// its length.
func EncodeFacts(s *Schema) []byte {
	buf := bytes.NewBuffer(make([]byte, 0, FactsLen(s)))
	_ = WriteFacts(buf, s) // a bytes.Buffer's Write never fails
	return buf.Bytes()
}

// zigzag maps a signed delta to the unsigned value binary.AppendVarint
// would write for it: small magnitudes, either sign, to small values.
func zigzag(d temporal.Instant) uint64 {
	if d < 0 {
		return ^(uint64(d) << 1)
	}
	return uint64(d) << 1
}

// uvarintLen returns the bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

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
		if bytes.HasPrefix(data, factsMagic[:len(factsMagic)-2]) {
			return fmt.Errorf("%w (magic %q)", ErrFactsVersion, data[:min(len(data), len(factsMagic))])
		}
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
	// A fact costs at least one byte per ordinal and for its instant,
	// plus its fixed-width values (divided, not multiplied: n is
	// untrusted).
	if n > uint64(len(data))/(nd+1+8*nm) {
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
	times := data
	for k := uint64(0); k < n; k++ {
		_, w := binary.Varint(data)
		if w <= 0 {
			return fmt.Errorf("core: facts: bad instant %d", k)
		}
		data = data[w:]
	}
	if uint64(len(data)) != n*8*nm {
		return fmt.Errorf("core: facts: %d bytes after the instants, want %d", len(data), n*8*nm)
	}
	vals := data
	ords := make([]int32, ft.nd)
	values := make([]float64, ft.nm)
	var t temporal.Instant
	for f := 0; f < int(n); f++ {
		d, w := binary.Varint(times)
		times, t = times[w:], t+temporal.Instant(d)
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
