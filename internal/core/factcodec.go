package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
// Nothing passes through text: an instant is its difference from the
// instant before it (the first from 0), taken in wrapping int64
// arithmetic so that every pair of instants — Origin then Now included —
// has one, and written as a zigzag uvarint, so a store loaded member by
// member, which steps one month a fact, pays one byte an instant. A
// section whose every value is an integer (integral) is flagged and
// writes each value as a zigzag uvarint, a byte or two for the amounts
// a warehouse holds; any other section writes every value as its
// Float64bits (NaN payloads survive).
//
//	magic "MVFC04"
//	uvarint numDims, uvarint numMeasures, uvarint numFacts
//	byte integers: 1 when every value is integral, else 0
//	numFacts×numDims uvarint member version ordinals
//	numFacts zigzag uvarint instant deltas, in tuple order
//	numFacts×numMeasures values: zigzag uvarints when integers is 1,
//	  uint64 LE Float64bits when 0

var factsMagic = []byte("MVFC04")

// ErrFactsVersion refuses a facts payload in an earlier version of the
// codec: one format is read, the one written.
var ErrFactsVersion = errors.New("core: facts: payload in an earlier facts codec; this build reads only MVFC04")

// maxIntegral is the magnitude bound of an integral value: every
// integer up to it is a float64 exactly.
const maxIntegral = 1 << 53

// integral reports whether v travels as an integer: it is one, of
// magnitude at most 2^53, and not −0. NaN and ±Inf are not.
func integral(v float64) bool {
	return v == math.Trunc(v) && math.Abs(v) <= maxIntegral && (v != 0 || !math.Signbit(v))
}

// appendVarints appends the values of slot j, nm a tuple and every one
// integral, as zigzag varints.
func (sh *factShard) appendVarints(buf []byte, j, nm int) []byte {
	if sh.values == nil {
		for _, v := range sh.ints[j*nm : (j+1)*nm] {
			buf = binary.AppendVarint(buf, int64(v))
		}
		return buf
	}
	for _, v := range sh.values[j*nm : (j+1)*nm] {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// integers reports whether every live value of ft is integral: true at
// once of a narrow shard, whose values are int16s.
func (ft *FactTable) integers() bool {
	for _, sh := range ft.shards {
		if sh.values == nil {
			continue
		}
		for j := 0; j < sh.n; j++ {
			if !sh.isLive(j) {
				continue
			}
			for _, v := range sh.values[j*ft.nm : (j+1)*ft.nm] {
				if !integral(v) {
					return false
				}
			}
		}
	}
	return true
}

// factsChunk is the size of the buffer WriteFacts encodes through.
const factsChunk = 32 << 10

// WriteFacts writes the facts payload of s to w: the schema's live
// facts, deterministically, one walk over the shards per column,
// encoded through a buffer of factsChunk bytes, so that a snapshot
// streams its facts section and never holds it whole. The payload
// frames itself (its header counts the facts), so nothing needs its
// length ahead of it. It returns w's first error.
func WriteFacts(w io.Writer, s *Schema) error {
	ft := s.facts
	nd, nm, n := ft.nd, ft.nm, ft.Len()
	// The most one tuple adds to a column: its ordinals, its instant's
	// delta or its values.
	most := max(binary.MaxVarintLen32*nd, binary.MaxVarintLen64*max(nm, 1))
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
	ints := ft.integers()
	buf = append(buf, factsMagic...)
	buf = binary.AppendUvarint(buf, uint64(nd))
	buf = binary.AppendUvarint(buf, uint64(nm))
	buf = binary.AppendUvarint(buf, uint64(n))
	if ints {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	ft.each(func(sh *factShard, j int) bool {
		for _, o := range sh.coords[j*nd : (j+1)*nd] {
			buf = binary.AppendUvarint(buf, uint64(o))
		}
		return room()
	})
	var prev temporal.Instant
	ft.each(func(sh *factShard, j int) bool {
		t := sh.at(j)
		buf = binary.AppendUvarint(buf, zigzag(int64(t-prev)))
		prev = t
		return room()
	})
	vals := make([]float64, nm)
	ft.each(func(sh *factShard, j int) bool {
		if ints {
			buf = sh.appendVarints(buf, j, nm)
			return room()
		}
		for _, v := range sh.valuesAt(vals, j) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		return room()
	})
	flush()
	return err
}

// EncodeFacts returns the facts payload of s in one buffer.
func EncodeFacts(s *Schema) []byte {
	var buf bytes.Buffer
	_ = WriteFacts(&buf, s) // a bytes.Buffer's Write never fails
	return buf.Bytes()
}

// zigzag maps a signed delta to the unsigned value binary.AppendVarint
// would write for it: small magnitudes, either sign, to small values.
func zigzag(d int64) uint64 {
	if d < 0 {
		return ^(uint64(d) << 1)
	}
	return uint64(d) << 1
}

// DecodeFacts appends the encoded facts to s's fact table in their
// encoded order, refusing the payload unless it frames exactly, its
// widths are the schema's, and every fact is one Insert would take: an
// ordinal of a member version of its dimension, valid at the fact's
// instant (Definition 5), at a key the table does not hold yet.
// Appending through the table's own columns keeps the zone maps and the
// ordinal stats as Insert builds them; the key index is not probed per
// fact but built once, exactly sized, from the columns in position
// order, the same pass refusing a repeated key. On error s is partly
// loaded and must be discarded.
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
	if len(data) == 0 || data[0] > 1 {
		return fmt.Errorf("core: facts: bad integers flag")
	}
	ints := data[0] == 1
	data = data[1:]
	// A fact costs at least one byte per ordinal and for its instant,
	// plus one per value when they are integers and eight otherwise
	// (divided, not multiplied: n is untrusted).
	valueLen := uint64(8)
	if ints {
		valueLen = 1
	}
	if n > uint64(len(data))/(nd+1+valueLen*nm) {
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
	vals := data
	if ints {
		for k := uint64(0); k < n*nm; k++ {
			v, w := binary.Varint(data)
			if w <= 0 || v < -maxIntegral || v > maxIntegral {
				return fmt.Errorf("core: facts: bad integer value %d", k)
			}
			data = data[w:]
		}
		if len(data) != 0 {
			return fmt.Errorf("core: facts: %d bytes after the values", len(data))
		}
	} else if uint64(len(data)) != n*8*nm {
		return fmt.Errorf("core: facts: %d bytes after the instants, want %d", len(data), n*8*nm)
	}
	ords := make([]int32, ft.nd)
	values := make([]float64, ft.nm)
	var t temporal.Instant
	start := ft.n
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
			if ints {
				v, w := binary.Varint(vals)
				vals, values[k] = vals[w:], float64(v)
			} else {
				values[k] = math.Float64frombits(binary.LittleEndian.Uint64(vals[(f*ft.nm+k)*8:]))
			}
		}
		ft.appendColumns(ords, t, values)
	}
	if pos, dup := ft.reindex(); dup {
		return fmt.Errorf("core: facts: fact %d repeats the key of an earlier one", pos-start)
	}
	return nil
}
