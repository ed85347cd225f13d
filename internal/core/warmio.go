package core

import "mvolap/internal/temporal"

// Warm export: the serializable image of one materialized mode in the
// columnar shard layout earlier builds stored modes in. Tuple order is
// preserved (it encodes the fold order, and with it every
// floating-point bit), values travel as Float64bits (NaN payloads
// survive), and the Avg contribution counts, Sources and Dropped ride
// along. No mode is materialized any more and nothing exports one: the
// types stay for internal/schemaio's codec, which the benchmark
// module's serial replay still compiles against.

// MappedShardExport is the serializable image of one storage shard:
// N tuples in struct-of-arrays layout. Coords holds N×NumDims member
// version IDs, Values and CFs N×NumMeasures entries, Times and Sources
// N entries, and AvgN N×NumMeasures counts iff the table has an Avg
// measure.
type MappedShardExport struct {
	N      int
	Coords []MVID
	Times  []temporal.Instant
	// Values holds math.Float64bits of each measure value, bit-exact.
	Values  []uint64
	CFs     []Confidence
	Sources []int32
	AvgN    []int32
}

// MappedTableExport is the serializable image of one materialized
// mode, together with its structural identity (the ID, interval
// and signature that warm retention compares across a clone-swap).
// Every shard except the last holds exactly MappedShardSize tuples.
type MappedTableExport struct {
	// ModeKey is Mode.String(): "tcm" or a structure version ID.
	ModeKey string
	// Valid is the structure version's interval; zero for tcm.
	Valid temporal.Interval
	// Signature is the structural signature over Valid; "" for tcm.
	Signature   string
	Dropped     int
	NumDims     int
	NumMeasures int
	HasAvg      bool
	NumFacts    int
	Shards      []MappedShardExport
}

// ExportWarmModes used to export the materialized modes of the
// schema's mode cache. A mode has no materialized state any more, so it
// returns nil.
//
// Deprecated: only the benchmark module's serial replay calls it; it is
// removed with that replay (ROADMAP item 2).
func (s *Schema) ExportWarmModes() []*MappedTableExport { return nil }
