package schemaio

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

// Mapped-table codec: the binary serialization of one cached MVFT
// mode, carried as one CRC-closed section of the store's snapshot
// container for warm restarts. The format is deterministic — same
// table, same bytes — which is what lets two snapshots of the same
// state be compared byte for byte.
//
// The layout mirrors the engine's columnar shard layout: after the
// header, each field travels as one contiguous column over all tuples,
// so encoding streams straight out of the shard arrays and decoding
// re-chunks into shards without ever materializing rows:
//
//	magic "MVMT02"
//	uvarint len(modeKey), modeKey
//	int64 LE valid.Start, int64 LE valid.End   (raw bits; Now/Origin safe)
//	uvarint len(signature), signature
//	uvarint dropped
//	uvarint numDims, uvarint numMeasures, byte hasAvg
//	uvarint numFacts, then field-major columns:
//	  numFacts×numDims coord ids, each uvarint len + bytes
//	  numFacts int64 LE times
//	  numFacts×numMeasures uint64 LE Float64bits values
//	  numFacts×numMeasures byte confidences
//	  numFacts uvarint source counts
//	  if hasAvg: numFacts×numMeasures uint32 LE avg counts
//
// Times and interval bounds travel as raw little-endian int64 — the
// temporal sentinels (Now = MaxInt64, Origin = MinInt64) would not
// survive a float-typed JSON number.

var mappedTableMagic = []byte("MVMT02")

// Decode limits: a string longer than this, or a count implying more
// bytes than the input holds, marks the payload corrupt. They bound
// allocations on hostile input (the fuzz target) without constraining
// any real table.
const (
	mtMaxStringLen = 1 << 20
	mtMaxCount     = 1 << 28
)

// validateExportShape checks the shard invariants the engine
// guarantees (and decoding re-establishes): every shard but the last
// exactly full, column lengths matching the shard's tuple count, tuple
// counts summing to NumFacts.
func validateExportShape(exp *core.MappedTableExport) error {
	total := 0
	for si := range exp.Shards {
		sh := &exp.Shards[si]
		if sh.N < 1 || sh.N > core.MappedShardSize {
			return fmt.Errorf("schemaio: mapped shard %d holds %d tuples", si, sh.N)
		}
		if si < len(exp.Shards)-1 && sh.N != core.MappedShardSize {
			return fmt.Errorf("schemaio: non-final mapped shard %d holds %d tuples", si, sh.N)
		}
		if len(sh.Coords) != sh.N*exp.NumDims || len(sh.Times) != sh.N ||
			len(sh.Values) != sh.N*exp.NumMeasures || len(sh.CFs) != sh.N*exp.NumMeasures ||
			len(sh.Sources) != sh.N {
			return fmt.Errorf("schemaio: mapped shard %d column shape mismatch", si)
		}
		wantAvg := 0
		if exp.HasAvg {
			wantAvg = sh.N * exp.NumMeasures
		}
		if len(sh.AvgN) != wantAvg {
			return fmt.Errorf("schemaio: mapped shard %d has %d avg counts, want %d", si, len(sh.AvgN), wantAvg)
		}
		for _, s := range sh.Sources {
			if s < 0 {
				return fmt.Errorf("schemaio: mapped shard %d has negative source count", si)
			}
		}
		total += sh.N
	}
	if total != exp.NumFacts {
		return fmt.Errorf("schemaio: mapped table has %d tuples across shards, header says %d", total, exp.NumFacts)
	}
	return nil
}

// EncodeMappedTable serializes one exported mode deterministically.
func EncodeMappedTable(exp *core.MappedTableExport) ([]byte, error) {
	if exp == nil {
		return nil, fmt.Errorf("schemaio: nil mapped-table export")
	}
	if err := validateExportShape(exp); err != nil {
		return nil, err
	}
	// An upper bound on the encoding, so the buffer is allocated once:
	// the header's numbers, then per tuple an instant (8), a source count
	// (≤ 5) and per measure a value and a confidence (8+1) and, with an
	// Avg measure, a count (4); each coordinate adds its bytes and a
	// length prefix (≤ 3).
	perTuple := 13 + 9*exp.NumMeasures
	if exp.HasAvg {
		perTuple += 4 * exp.NumMeasures
	}
	size := 80 + len(exp.ModeKey) + len(exp.Signature) + exp.NumFacts*perTuple
	for si := range exp.Shards {
		for _, id := range exp.Shards[si].Coords {
			size += 3 + len(id)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, mappedTableMagic...)
	buf = appendString(buf, exp.ModeKey)
	buf = appendInt64(buf, int64(exp.Valid.Start))
	buf = appendInt64(buf, int64(exp.Valid.End))
	buf = appendString(buf, exp.Signature)
	buf = binary.AppendUvarint(buf, uint64(exp.Dropped))
	buf = binary.AppendUvarint(buf, uint64(exp.NumDims))
	buf = binary.AppendUvarint(buf, uint64(exp.NumMeasures))
	if exp.HasAvg {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(exp.NumFacts))
	for si := range exp.Shards {
		for _, id := range exp.Shards[si].Coords {
			buf = appendString(buf, string(id))
		}
	}
	for si := range exp.Shards {
		for _, t := range exp.Shards[si].Times {
			buf = appendInt64(buf, int64(t))
		}
	}
	for si := range exp.Shards {
		for _, v := range exp.Shards[si].Values {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	for si := range exp.Shards {
		for _, cf := range exp.Shards[si].CFs {
			buf = append(buf, byte(cf))
		}
	}
	for si := range exp.Shards {
		for _, s := range exp.Shards[si].Sources {
			buf = binary.AppendUvarint(buf, uint64(s))
		}
	}
	if exp.HasAvg {
		for si := range exp.Shards {
			for _, n := range exp.Shards[si].AvgN {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
			}
		}
	}
	return buf, nil
}

// DecodeMappedTable parses an encoded mode, validating every length and
// count against the remaining input so corrupt or hostile bytes fail
// cleanly instead of over-allocating. The columns land flat and are
// chunked into MappedShardSize shards.
func DecodeMappedTable(data []byte) (*core.MappedTableExport, error) {
	if !bytes.HasPrefix(data, mappedTableMagic) {
		return nil, fmt.Errorf("schemaio: bad mapped-table magic")
	}
	r := &mtReader{data: data[len(mappedTableMagic):]}
	exp := &core.MappedTableExport{}
	exp.ModeKey = r.string()
	exp.Valid.Start = temporal.Instant(r.int64())
	exp.Valid.End = temporal.Instant(r.int64())
	exp.Signature = r.string()
	exp.Dropped = r.count()
	exp.NumDims = r.count()
	exp.NumMeasures = r.count()
	exp.HasAvg = r.byte() != 0
	nFacts := r.count()
	if r.err != nil {
		return nil, r.err
	}
	if exp.NumDims > mtMaxCount || exp.NumMeasures > mtMaxCount {
		return nil, fmt.Errorf("schemaio: mapped table dims/measures out of range")
	}
	// Every tuple needs at least one byte per coord plus its fixed
	// fields; a count the remaining bytes cannot hold is corruption.
	// This also bounds the column allocations below by the input size.
	minPerFact := exp.NumDims + 8 + 9*exp.NumMeasures + 1
	if exp.HasAvg {
		minPerFact += 4 * exp.NumMeasures
	}
	if nFacts*minPerFact > len(r.data)-r.off {
		return nil, fmt.Errorf("schemaio: mapped table fact count %d exceeds payload", nFacts)
	}
	exp.NumFacts = nFacts
	nd, nm := exp.NumDims, exp.NumMeasures
	coords := make([]core.MVID, nFacts*nd)
	times := make([]temporal.Instant, nFacts)
	values := make([]uint64, nFacts*nm)
	cfs := make([]core.Confidence, nFacts*nm)
	sources := make([]int32, nFacts)
	var avgN []int32
	if exp.HasAvg {
		avgN = make([]int32, nFacts*nm)
	}
	for i := range coords {
		coords[i] = core.MVID(r.string())
	}
	for i := range times {
		times[i] = temporal.Instant(r.int64())
	}
	for i := range values {
		values[i] = r.uint64()
	}
	for i := range cfs {
		cfs[i] = core.Confidence(r.byte())
	}
	for i := range sources {
		sources[i] = int32(r.count())
	}
	for i := range avgN {
		avgN[i] = int32(r.uint32())
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("schemaio: %d trailing bytes after mapped table", len(r.data)-r.off)
	}
	exp.Shards = core.ShardMappedColumns(nd, nm, coords, times, values, cfs, sources, avgN)
	return exp, nil
}

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendInt64 appends the raw two's-complement bits little-endian.
func appendInt64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

// mtReader is a bounds-checked cursor over an encoded payload (mapped
// table or facts section); the
// first failure sticks and every later read returns zero values.
type mtReader struct {
	data []byte
	off  int
	err  error
}

func (r *mtReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("schemaio: corrupt payload: "+format, args...)
	}
}

func (r *mtReader) bytes(n int) []byte {
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

func (r *mtReader) byte() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *mtReader) uvarint() uint64 {
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
func (r *mtReader) count() int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > mtMaxCount {
		r.fail("count %d out of range", v)
		return 0
	}
	return int(v)
}

func (r *mtReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > mtMaxStringLen {
		r.fail("string length %d out of range", n)
		return ""
	}
	return string(r.bytes(int(n)))
}

func (r *mtReader) uint64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *mtReader) uint32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *mtReader) int64() int64 { return int64(r.uint64()) }
