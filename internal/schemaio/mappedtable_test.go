package schemaio

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

// sampleExport builds an export exercising every field: sentinel
// interval bounds, NaN value bits, multiple measures, Avg counts.
func sampleExport(hasAvg bool) *core.MappedTableExport {
	exp := &core.MappedTableExport{
		ModeKey:     "V2",
		Valid:       temporal.Interval{Start: temporal.Instant(408), End: temporal.Now},
		Signature:   "sig|Org=3|Geo=1",
		Dropped:     2,
		NumDims:     2,
		NumMeasures: 2,
		HasAvg:      hasAvg,
		NumFacts:    2,
	}
	sh := core.MappedShardExport{
		N: 2,
		Coords: []core.MVID{
			"Dpt.Bill_id", "City.Lyon_id",
			"Dpt.Paul_id", "City.Paris_id",
		},
		Times: []temporal.Instant{temporal.Instant(410), temporal.Origin},
		Values: []uint64{
			math.Float64bits(70.5), math.Float64bits(math.NaN()),
			math.Float64bits(math.Copysign(0, -1)), math.Float64bits(1e300),
		},
		CFs:     []core.Confidence{0, 2, 1, 1},
		Sources: []int32{3, 1},
	}
	if hasAvg {
		sh.AvgN = []int32{3, 1, 1, 2}
	}
	exp.Shards = []core.MappedShardExport{sh}
	return exp
}

func TestMappedTableRoundTrip(t *testing.T) {
	for _, hasAvg := range []bool{false, true} {
		exp := sampleExport(hasAvg)
		data, err := EncodeMappedTable(exp)
		if err != nil {
			t.Fatalf("hasAvg=%v: encode: %v", hasAvg, err)
		}
		got, err := DecodeMappedTable(data)
		if err != nil {
			t.Fatalf("hasAvg=%v: decode: %v", hasAvg, err)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("hasAvg=%v: round trip mismatch:\n got %+v\nwant %+v", hasAvg, got, exp)
		}
		// Determinism: encoding the decoded table reproduces the bytes.
		again, err := EncodeMappedTable(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("hasAvg=%v: re-encode differs", hasAvg)
		}
	}
}

func TestMappedTableEncodeRejectsBadShapes(t *testing.T) {
	if _, err := EncodeMappedTable(nil); err == nil {
		t.Error("nil export must fail")
	}
	exp := sampleExport(false)
	exp.Shards[0].Values = exp.Shards[0].Values[:1]
	if _, err := EncodeMappedTable(exp); err == nil {
		t.Error("short values column must fail")
	}
	exp = sampleExport(true)
	exp.Shards[0].AvgN = nil
	if _, err := EncodeMappedTable(exp); err == nil {
		t.Error("missing avg counts must fail")
	}
	exp = sampleExport(false)
	exp.NumFacts = 3
	if _, err := EncodeMappedTable(exp); err == nil {
		t.Error("fact count not matching shards must fail")
	}
	exp = sampleExport(false)
	exp.Shards[0].N = 0
	if _, err := EncodeMappedTable(exp); err == nil {
		t.Error("empty shard must fail")
	}
}

// TestMappedTableDecodeRejectsCorruption truncates and mutates the
// encoding at every offset: decoding must fail cleanly (or, for a byte
// flip, either fail or produce a parseable table), never panic.
func TestMappedTableDecodeRejectsCorruption(t *testing.T) {
	data, err := EncodeMappedTable(sampleExport(true))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := DecodeMappedTable(data[:n]); err == nil {
			t.Fatalf("truncation at %d of %d decoded", n, len(data))
		}
	}
	if _, err := DecodeMappedTable(append(append([]byte{}, data...), 0)); err == nil {
		t.Error("trailing byte must fail")
	}
	bad := append([]byte{}, data...)
	bad[0] ^= 0xFF
	if _, err := DecodeMappedTable(bad); err == nil {
		t.Error("bad magic must fail")
	}
	// The row-major MVMT01 framing is gone: its magic is just a bad one.
	if _, err := DecodeMappedTable(append([]byte("MVMT01"), data[len(mappedTableMagic):]...)); err == nil {
		t.Error("MVMT01 payload must fail")
	}
}

// TestEncodeMappedTableAllocatesOnce: the size bound holds, so the
// encoder never regrows its buffer (the snapshot writer's allocation
// bound leans on it).
func TestEncodeMappedTableAllocatesOnce(t *testing.T) {
	for _, hasAvg := range []bool{false, true} {
		exp := sampleExport(hasAvg)
		var err error
		if n := testing.AllocsPerRun(10, func() { _, err = EncodeMappedTable(exp) }); n != 1 || err != nil {
			t.Errorf("hasAvg=%v: %v allocations, %v", hasAvg, n, err)
		}
	}
}

// FuzzMappedTableCodec checks the round-trip invariant on arbitrary
// bytes: whatever decodes must re-encode and decode back identically,
// and the decoder must never panic or over-allocate.
func FuzzMappedTableCodec(f *testing.F) {
	for _, hasAvg := range []bool{false, true} {
		seed, err := EncodeMappedTable(sampleExport(hasAvg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2]) // torn
	}
	f.Add([]byte("MVMT01")) // the retired row-major framing: just a bad magic now
	f.Add([]byte("MVMT02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		exp, err := DecodeMappedTable(data)
		if err != nil {
			return
		}
		out, err := EncodeMappedTable(exp)
		if err != nil {
			t.Fatalf("decoded table failed to re-encode: %v", err)
		}
		back, err := DecodeMappedTable(out)
		if err != nil {
			t.Fatalf("re-encoded table failed to decode: %v", err)
		}
		if !reflect.DeepEqual(back, exp) {
			t.Fatal("re-encode round trip diverged")
		}
	})
}
