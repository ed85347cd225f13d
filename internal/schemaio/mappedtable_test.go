package schemaio

import (
	"math"
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

// TestEncodeMappedTableAllocatesOnce: the size bound holds, so the
// encoder never regrows its buffer.
func TestEncodeMappedTableAllocatesOnce(t *testing.T) {
	for _, hasAvg := range []bool{false, true} {
		exp := sampleExport(hasAvg)
		var err error
		if n := testing.AllocsPerRun(10, func() { _, err = EncodeMappedTable(exp) }); n != 1 || err != nil {
			t.Errorf("hasAvg=%v: %v allocations, %v", hasAvg, n, err)
		}
	}
}
