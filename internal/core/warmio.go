package core

import (
	"math"

	"mvolap/internal/temporal"
)

// Warm export: the image of one materialized MappedTable in its native
// columnar shard layout. Tuple order is preserved (it encodes the fold
// order, and with it every floating-point bit), values travel as
// Float64bits (NaN payloads survive), and the Avg contribution counts,
// Sources and Dropped ride along. No snapshot carries it: a snapshot
// freezes the facts and the structure, and every mode rebuilds from
// them. Only the benchmark module's serial replay still times the
// export and its encoding.

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

// MappedTableExport is the serializable image of one cached mode's
// MappedTable, together with its structural identity (the ID, interval
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

// shardMappedColumns cuts flat field-major columns over len(times)
// tuples into shard exports of MappedShardSize tuples, the last one
// possibly shorter. The shards alias the columns; avgN is nil for a
// table without an Avg measure.
func shardMappedColumns(nd, nm int, coords []MVID, times []temporal.Instant, values []uint64, cfs []Confidence, sources, avgN []int32) []MappedShardExport {
	var shards []MappedShardExport
	for lo := 0; lo < len(times); lo += MappedShardSize {
		hi := min(lo+MappedShardSize, len(times))
		se := MappedShardExport{
			N:       hi - lo,
			Coords:  coords[lo*nd : hi*nd : hi*nd],
			Times:   times[lo:hi:hi],
			Values:  values[lo*nm : hi*nm : hi*nm],
			CFs:     cfs[lo*nm : hi*nm : hi*nm],
			Sources: sources[lo:hi:hi],
		}
		if avgN != nil {
			se.AvgN = avgN[lo*nm : hi*nm : hi*nm]
		}
		shards = append(shards, se)
	}
	return shards
}

// ExportWarmModes exports every completed, successfully materialized
// mode of the schema's MVFT cache, sorted by mode key: tcm and the
// inferred versions, never a composed version, which no other schema
// can resolve by ID. It never triggers a materialization: a
// cold cache (or one with only failed or in-flight builds) exports
// nothing. The export aliases the immutable shard columns of the
// published tables (values are re-encoded as bits, coordinates
// translated from ordinals back to member version IDs); callers must
// not write through it.
//
// Deprecated: no snapshot carries modes any more; only the benchmark
// module's serial replay calls this. It is removed with that replay
// (ROADMAP item 2).
func (s *Schema) ExportWarmModes() []*MappedTableExport {
	tables := s.finishedModes()
	out := make([]*MappedTableExport, 0, len(tables))
	for _, t := range tables {
		sv := t.table.Mode.Version
		if t.table.Mode.Kind == VersionKind && sv.sig == "" {
			continue // composed
		}
		exp := &MappedTableExport{
			ModeKey:     t.key,
			Dropped:     t.table.Dropped,
			NumDims:     len(s.dims),
			NumMeasures: len(s.measures),
			HasAvg:      t.table.hasAvg,
			NumFacts:    t.table.n - t.table.dead,
			Shards:      make([]MappedShardExport, 0, len(t.table.shards)),
		}
		if t.table.Mode.Kind == VersionKind {
			exp.Valid, exp.Signature = sv.Valid, sv.sig
		}
		nd, nm := t.table.nd, t.table.nm
		if t.table.dead == 0 {
			for _, sh := range t.table.shards {
				se := MappedShardExport{
					N:       sh.n,
					Coords:  make([]MVID, len(sh.coords)),
					Times:   sh.times,
					Values:  make([]uint64, len(sh.values)),
					CFs:     sh.cfs,
					Sources: sh.sources,
					AvgN:    sh.avgN,
				}
				for j := 0; j < sh.n; j++ {
					t.table.ids(se.Coords[j*nd:(j+1)*nd], sh.coords[j*nd:(j+1)*nd])
				}
				for i, v := range sh.values {
					se.Values[i] = math.Float64bits(v)
				}
				exp.Shards = append(exp.Shards, se)
			}
		} else {
			// Tombstoned slots do not travel: live tuples repack into
			// fresh fully packed shards, in live order (the codec
			// rejects underfull non-final shards, and scans define order
			// over live tuples anyway).
			// The live count is known, so each column is allocated once
			// for the whole table and cut into shards afterwards.
			live := exp.NumFacts
			coords := make([]MVID, 0, live*nd)
			times := make([]temporal.Instant, 0, live)
			values := make([]uint64, 0, live*nm)
			cfs := make([]Confidence, 0, live*nm)
			sources := make([]int32, 0, live)
			var avgN []int32
			if t.table.hasAvg {
				avgN = make([]int32, 0, live*nm)
			}
			for _, sh := range t.table.shards {
				for j := 0; j < sh.n; j++ {
					if sh.sources[j] == 0 {
						continue
					}
					coords = coords[:len(coords)+nd]
					t.table.ids(coords[len(coords)-nd:], sh.coords[j*nd:(j+1)*nd])
					times = append(times, sh.times[j])
					for _, v := range sh.values[j*nm : (j+1)*nm] {
						values = append(values, math.Float64bits(v))
					}
					cfs = append(cfs, sh.cfs[j*nm:(j+1)*nm]...)
					sources = append(sources, sh.sources[j])
					if avgN != nil {
						avgN = append(avgN, sh.avgN[j*nm:(j+1)*nm]...)
					}
				}
			}
			exp.Shards = shardMappedColumns(nd, nm, coords, times, values, cfs, sources, avgN)
		}
		out = append(out, exp)
	}
	return out
}
