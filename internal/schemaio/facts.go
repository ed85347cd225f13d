package schemaio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

// Facts codec: the source fact table as one columnar binary payload,
// the facts section of the store's snapshot container. Facts travel in
// insertion order — it is the fold order of every query and every
// presentation of a mode, so a warehouse reloaded from here answers bit
// for bit as the one written — and
// nothing passes through text: instants are raw int64 (Now and Origin
// survive), values are Float64bits (NaN payloads survive). Member
// version IDs are written once, in order of first use, and each
// coordinate refers to its ID by position:
//
//	magic "MVFC01"
//	uvarint numDims, uvarint numMeasures, uvarint numFacts
//	uvarint numIDs, then numIDs × (uvarint len + bytes)
//	numFacts×numDims uvarint ID positions
//	numFacts int64 LE instants
//	numFacts×numMeasures uint64 LE Float64bits values

var factsMagic = []byte("MVFC01")

// EncodeFacts serializes the schema's source facts deterministically,
// walking the fact table's columns rather than a view of the whole
// table.
func EncodeFacts(s *core.Schema) []byte {
	ft := s.Facts()
	return encodeFacts(ft.All, ft.Len(), len(s.Dimensions()), len(s.Measures()))
}

// encodeFacts encodes the n facts walk yields, in order. It walks them
// three times — coordinates, instants, values — in the payload's
// field-major order, and keeps nothing of a yielded fact past its step.
func encodeFacts(walk func(yield func(*core.Fact) bool), n, nd, nm int) []byte {
	pos := make(map[core.MVID]uint32)
	var ids []core.MVID
	refs := make([]uint32, 0, n*nd)
	// An upper bound on the encoding (a uvarint is at most 10 bytes, an
	// ID position at most 5), so the buffer is allocated once.
	size := len(factsMagic) + 4*binary.MaxVarintLen64 + n*(8+8*nm+binary.MaxVarintLen32*nd)
	walk(func(f *core.Fact) bool {
		for _, id := range f.Coords {
			p, ok := pos[id]
			if !ok {
				p = uint32(len(ids))
				pos[id] = p
				ids = append(ids, id)
				size += binary.MaxVarintLen32 + len(id)
			}
			refs = append(refs, p)
		}
		return true
	})
	buf := make([]byte, 0, size)
	buf = append(buf, factsMagic...)
	buf = binary.AppendUvarint(buf, uint64(nd))
	buf = binary.AppendUvarint(buf, uint64(nm))
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = appendString(buf, string(id))
	}
	for _, p := range refs {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	walk(func(f *core.Fact) bool {
		buf = appendInt64(buf, int64(f.Time))
		return true
	})
	walk(func(f *core.Fact) bool {
		for _, v := range f.Values {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		return true
	})
	return buf
}

// DecodeFacts inserts the encoded facts into s in their encoded order,
// through InsertFact — arity and coordinates are validated against the
// schema's dimensions exactly as for a fact arriving from anywhere
// else.
func DecodeFacts(data []byte, s *core.Schema) error {
	before, i := s.Facts().Len(), 0
	err := decodeFacts(data, func(coords core.Coords, t temporal.Instant, values []float64) error {
		if err := s.InsertFact(coords, t, values...); err != nil {
			return fmt.Errorf("schemaio: fact %d: %w", i, err)
		}
		i++
		return nil
	})
	if err == nil && s.Facts().Len() != before+i {
		// An insert at an existing key replaces: the payload named some
		// cell twice, which no fact table ever encodes.
		err = fmt.Errorf("schemaio: %d facts decoded into %d cells", i, s.Facts().Len()-before)
	}
	return err
}

// decodeFacts parses the payload and hands each fact to emit, in
// order. The slices passed to emit are reused between calls. Every
// count is checked against the bytes that remain, so allocations are
// bounded by the input's length.
func decodeFacts(data []byte, emit func(core.Coords, temporal.Instant, []float64) error) error {
	if !bytes.HasPrefix(data, factsMagic) {
		return fmt.Errorf("schemaio: bad facts magic")
	}
	r := &factsReader{data: data[len(factsMagic):]}
	nd, nm, nFacts, nIDs := r.count(), r.count(), r.count(), r.count()
	if r.err != nil {
		return r.err
	}
	// An ID costs at least its length byte, a fact one byte per
	// coordinate plus its fixed-width instant and values.
	left := len(r.data) - r.off
	if nIDs > left || nFacts*(nd+8+8*nm) > left-nIDs {
		return fmt.Errorf("schemaio: facts payload too short for %d ids and %d facts", nIDs, nFacts)
	}
	ids := make([]core.MVID, nIDs)
	for i := range ids {
		ids[i] = core.MVID(r.string())
	}
	refs := make([]uint32, nFacts*nd)
	for i := range refs {
		p := r.count()
		if p >= nIDs && r.err == nil {
			r.fail("coordinate refers to id %d of %d", p, nIDs)
		}
		refs[i] = uint32(p)
	}
	times := r.bytes(nFacts * 8)
	vals := r.bytes(nFacts * nm * 8)
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("schemaio: %d trailing bytes after facts", len(r.data)-r.off)
	}
	if nFacts == 0 {
		return nil // nd and nm are unbounded without a fact to pay for them
	}
	coords := make(core.Coords, nd)
	values := make([]float64, nm)
	for i := 0; i < nFacts; i++ {
		for d := range coords {
			coords[d] = ids[refs[i*nd+d]]
		}
		for k := range values {
			values[k] = math.Float64frombits(binary.LittleEndian.Uint64(vals[(i*nm+k)*8:]))
		}
		t := temporal.Instant(binary.LittleEndian.Uint64(times[i*8:]))
		if err := emit(coords, t, values); err != nil {
			return err
		}
	}
	return nil
}

// Decode limits: a string longer than this, or a count implying more
// bytes than the input holds, marks the payload corrupt. They bound
// allocations on hostile input (the fuzz target) without constraining
// any real warehouse.
const (
	maxStringLen = 1 << 20
	maxCount     = 1 << 28
)

// factsReader is a bounds-checked cursor over an encoded facts payload;
// the first failure sticks and every later read returns zero values.
type factsReader struct {
	data []byte
	off  int
	err  error
}

func (r *factsReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("schemaio: corrupt payload: "+format, args...)
	}
}

func (r *factsReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.fail("need %d bytes at offset %d of %d", n, r.off, len(r.data))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *factsReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a uvarint that must fit a non-negative int within the
// decode limits.
func (r *factsReader) count() int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > maxCount {
		r.fail("count %d out of range", v)
		return 0
	}
	return int(v)
}

func (r *factsReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen {
		r.fail("string length %d out of range", n)
		return ""
	}
	return string(r.bytes(int(n)))
}
