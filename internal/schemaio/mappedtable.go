package schemaio

import (
	"encoding/binary"
	"fmt"

	"mvolap/internal/core"
)

// Mapped-table codec: the binary serialization of one cached MVFT
// mode. Snapshots no longer carry it (a snapshot holds facts and
// structure; every mode rebuilds from them), and nothing in the module
// decodes it: the encoder stays only for the benchmark module's serial
// replay, which times it. The format is deterministic — same table,
// same bytes.
//
// The layout mirrors the engine's columnar shard layout: after the
// header, each field travels as one contiguous column over all tuples,
// so encoding streams straight out of the shard arrays:
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

// validateExportShape checks the shard invariants the engine
// guarantees: every shard but the last
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
//
// Deprecated: no snapshot carries modes any more; only the benchmark
// module's serial replay calls this. It is removed with that replay
// (ROADMAP item 2).
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

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendInt64 appends the raw two's-complement bits little-endian.
func appendInt64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}
