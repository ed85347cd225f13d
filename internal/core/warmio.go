package core

import (
	"fmt"
	"math"

	"mvolap/internal/temporal"
)

// Warm export/import: the serving tier's snapshot container can carry
// the materialized MappedTables of every cached temporal mode, so a
// restarted process answers its first query in each mode without a
// rematerialization. The exchange types below are a faithful, stable
// image of one MappedTable in its native columnar shard layout: tuple
// order is preserved (it encodes the fold order, and with it every
// floating-point bit), values travel as Float64bits (NaN payloads
// survive), and the Avg contribution counts, Sources and Dropped ride
// along so a restored table keeps folding deltas exactly like the
// table it was exported from.

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
// MappedTable, together with the structural identity the importing
// schema must match (the same ID + interval + signature rule that
// governs warm retention across a clone-swap). Every shard except the
// last holds exactly MappedShardSize tuples.
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

// ShardMappedColumns cuts flat field-major columns over len(times)
// tuples into shard exports of MappedShardSize tuples, the last one
// possibly shorter. The shards alias the columns; avgN is nil for a
// table without an Avg measure.
func ShardMappedColumns(nd, nm int, coords []MVID, times []temporal.Instant, values []uint64, cfs []Confidence, sources, avgN []int32) []MappedShardExport {
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
// inferred versions, never a composed version, which no schema can
// resolve by ID on import. It never triggers a materialization: a
// cold cache (or one with only failed or in-flight builds) exports
// nothing. The export aliases the immutable
// shard columns of the published tables (values are re-encoded as
// bits); importing such an export adopts the shards frozen, so neither
// side can ever write through the shared arrays.
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
		if t.table.dead == 0 {
			for _, sh := range t.table.shards {
				se := MappedShardExport{
					N:       sh.n,
					Coords:  sh.coords,
					Times:   sh.times,
					Values:  make([]uint64, len(sh.values)),
					CFs:     sh.cfs,
					Sources: sh.sources,
					AvgN:    sh.avgN,
				}
				for i, v := range sh.values {
					se.Values[i] = math.Float64bits(v)
				}
				exp.Shards = append(exp.Shards, se)
			}
		} else {
			// Tombstoned slots do not travel: live tuples repack into
			// fresh fully packed shards, in live order (the import
			// validator rejects zero sources and underfull non-final
			// shards, and scans define order over live tuples anyway).
			// The live count is known, so each column is allocated once
			// for the whole table and cut into shards afterwards.
			nd, nm, live := t.table.nd, t.table.nm, exp.NumFacts
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
					coords = append(coords, sh.coords[j*nd:(j+1)*nd]...)
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
			exp.Shards = ShardMappedColumns(nd, nm, coords, times, values, cfs, sources, avgN)
		}
		out = append(out, exp)
	}
	return out
}

// ImportWarmMode validates one exported mode against the schema and,
// when it matches, installs the rebuilt MappedTable into the MVFT
// cache as if it had just been materialized (it does not count as a
// Materialization). Validation enforces the warm-retention rule: the
// mode must resolve on this schema (tcm, or a structure version with
// the same ID), and for version modes the valid interval and the
// structural signature must be unchanged — a snapshot taken on a
// different structure must rebuild cold, never serve stale tuples.
// Per-shard shape, confidence range and duplicate-key checks guard
// against on-disk corruption that slipped past the envelope CRC.
//
// Imported shards are adopted frozen (epoch 0, which no table ever
// owns): the table serves reads from them directly, and the first
// delta fold that writes into one privatizes it — so an export that
// aliased a live table's columns can never be written through.
func (s *Schema) ImportWarmMode(exp *MappedTableExport) error {
	if exp.NumDims != len(s.dims) {
		return fmt.Errorf("core: warm mode %s: %d dims, schema has %d", exp.ModeKey, exp.NumDims, len(s.dims))
	}
	if exp.NumMeasures != len(s.measures) {
		return fmt.Errorf("core: warm mode %s: %d measures, schema has %d", exp.ModeKey, exp.NumMeasures, len(s.measures))
	}
	var mode Mode
	if exp.ModeKey == TCM().String() {
		mode = TCM()
	} else {
		sv := s.VersionByID(exp.ModeKey)
		if sv == nil {
			return fmt.Errorf("core: warm mode %s: no such structure version", exp.ModeKey)
		}
		if sv.Valid != exp.Valid {
			return fmt.Errorf("core: warm mode %s: valid %v, schema has %v", exp.ModeKey, exp.Valid, sv.Valid)
		}
		if sv.sig != exp.Signature {
			return fmt.Errorf("core: warm mode %s: structural signature changed", exp.ModeKey)
		}
		mode = InVersion(sv)
	}
	hasAvg := false
	for _, m := range s.measures {
		if m.Agg == Avg {
			hasAvg = true
			break
		}
	}
	if exp.HasAvg != hasAvg {
		return fmt.Errorf("core: warm mode %s: hasAvg %v, schema wants %v", exp.ModeKey, exp.HasAvg, hasAvg)
	}

	nd, nm := len(s.dims), len(s.measures)
	mt := &MappedTable{
		Mode:     mode,
		epoch:    shardEpochCounter.Add(1),
		nd:       nd,
		nm:       nm,
		index:    newKeyIndex(exp.NumFacts),
		Dropped:  exp.Dropped,
		alg:      s.alg,
		measures: s.measures,
		hasAvg:   hasAvg,
	}
	var keyBuf []byte
	for si := range exp.Shards {
		se := &exp.Shards[si]
		if se.N < 1 || se.N > MappedShardSize {
			return fmt.Errorf("core: warm mode %s: shard %d holds %d tuples", exp.ModeKey, si, se.N)
		}
		if si < len(exp.Shards)-1 && se.N != MappedShardSize {
			return fmt.Errorf("core: warm mode %s: non-final shard %d holds %d tuples", exp.ModeKey, si, se.N)
		}
		if len(se.Coords) != se.N*nd || len(se.Times) != se.N ||
			len(se.Values) != se.N*nm || len(se.CFs) != se.N*nm || len(se.Sources) != se.N {
			return fmt.Errorf("core: warm mode %s: shard %d column shape mismatch", exp.ModeKey, si)
		}
		wantAvg := 0
		if hasAvg {
			wantAvg = se.N * nm
		}
		if len(se.AvgN) != wantAvg {
			return fmt.Errorf("core: warm mode %s: shard %d has %d avg counts, want %d", exp.ModeKey, si, len(se.AvgN), wantAvg)
		}
		for _, cf := range se.CFs {
			if cf >= numConfidence {
				return fmt.Errorf("core: warm mode %s: shard %d has confidence %d out of range", exp.ModeKey, si, cf)
			}
		}
		for _, src := range se.Sources {
			if src < 1 {
				return fmt.Errorf("core: warm mode %s: shard %d has %d sources", exp.ModeKey, si, src)
			}
		}
		sh := &factShard{
			// Adopted frozen: see the doc comment above.
			epoch:   0,
			n:       se.N,
			coords:  se.Coords,
			times:   se.Times,
			values:  make([]float64, len(se.Values)),
			cfs:     se.CFs,
			sources: se.Sources,
		}
		for i, bits := range se.Values {
			sh.values[i] = math.Float64frombits(bits)
		}
		if hasAvg {
			sh.avgN = se.AvgN
		}
		// Adopted shards are frozen, so their zone maps are final: seal
		// them now rather than lazily on first query, carrying the
		// fast-path metadata through the MVMT codec round trip.
		sh.zone.Store(buildZone(sh, nd))
		// Tuples are already folded, so they install directly (no add()
		// merging); a duplicate key means the export is corrupt.
		for j := 0; j < se.N; j++ {
			keyBuf = appendFactKey(keyBuf[:0], Coords(sh.coords[j*nd:(j+1)*nd]), sh.times[j])
			if _, dup := mt.index.get(keyBuf); dup {
				return fmt.Errorf("core: warm mode %s: duplicate tuple key in shard %d at %d", exp.ModeKey, si, j)
			}
			mt.index.put(keyBuf, mt.n)
			mt.n++
		}
		mt.shards = append(mt.shards, sh)
	}
	if mt.n != exp.NumFacts {
		return fmt.Errorf("core: warm mode %s: %d tuples across shards, header says %d", exp.ModeKey, mt.n, exp.NumFacts)
	}

	mv := s.MultiVersion()
	e := &modeEntry{done: make(chan struct{}), table: mt}
	close(e.done)
	mv.mu.Lock()
	mv.byMode[exp.ModeKey] = e
	mv.mu.Unlock()
	return nil
}

// CachedModeKeys reports the mode keys with a completed, successful
// materialization in the MVFT cache, sorted — composed versions aside,
// the modes a warm snapshot taken right now would carry.
func (s *Schema) CachedModeKeys() []string {
	var keys []string
	for _, m := range s.finishedModes() {
		keys = append(keys, m.key)
	}
	return keys
}
