package core

import (
	"context"
	"math"

	"mvolap/internal/temporal"
)

// This file is the unfold side of incremental maintenance: taking a
// retracted source tuple's contributions back OUT of a warm-clone
// MappedTable. Folding is only partially invertible, so the engine
// classifies each touched cell:
//
//   - Full retraction (every source contribution of the cell is in the
//     batch): the tuple is tombstoned. Always exact, for every
//     aggregate and confidence algebra — the cell simply ceases to
//     exist, just as it would in a cold rebuild over surviving facts.
//   - Partial retraction: the retracted contributions are subtracted
//     from the cell under invertible aggregates (Sum, Count, and Avg
//     via the per-measure contribution counts). Min/Max folds discard
//     the information subtraction needs, and the confidence ⊗cf is
//     idempotent, so a mode is evicted instead whenever it carries a
//     Min/Max measure, a retracted emission whose confidence is not
//     SourceData, or a cell state the rules below cannot prove
//     invertible.
//
// Eviction is per mode and conservative: the mode rebuilds cold on its
// next access, which is always correct.

// FactsSpan returns the hull of the facts' instants and whether the
// slice was non-empty — the time window a retraction batch can affect,
// handed to the TQL result-cache invalidator.
func FactsSpan(facts []*Fact) (temporal.Interval, bool) {
	if len(facts) == 0 {
		return temporal.Interval{}, false
	}
	window := temporal.Between(facts[0].Time, facts[0].Time)
	for _, f := range facts[1:] {
		window = window.Hull(temporal.Between(f.Time, f.Time))
	}
	return window, true
}

// unfoldPair takes one prior contribution v back out of a folded cell
// value x; avgc carries the cell's per-measure non-NaN contribution
// count (meaningful for Avg only). ok=false means the fold cannot be
// proven invertible from the information at hand and the caller must
// evict the mode.
//
// NaN is the absent value (see foldPair): a NaN contribution never
// changed a Sum or Avg cell, so unfolding it is a no-op, and a
// subtraction that would leave a cell with no provable non-NaN
// contribution refuses rather than fabricate a zero where a cold
// rebuild computes NaN. Count folds reset to 1 whenever either side is
// NaN, destroying the running total, so any NaN involvement — or a
// cell sitting at the ambiguous reset value 1 — refuses too.
func unfoldPair(kind AggKind, x float64, avgc int32, v float64) (float64, int32, bool) {
	switch kind {
	case Sum:
		if math.IsNaN(v) {
			return x, avgc, true
		}
		if math.IsNaN(x) || x == v {
			return x, avgc, false
		}
		return x - v, avgc, true
	case Count:
		if math.IsNaN(v) || math.IsNaN(x) || x == v || x == 1 {
			return x, avgc, false
		}
		return x - v, avgc, true
	case Avg:
		if math.IsNaN(v) {
			return x, avgc, true
		}
		if math.IsNaN(x) || avgc < 1 {
			return x, avgc, false
		}
		if avgc == 1 {
			// v was the cell's only non-NaN contribution; any survivors
			// are NaN, so the mean reverts to absent — but only if the
			// stored mean really is that single contribution.
			if math.Float64bits(x) != math.Float64bits(v) {
				return x, avgc, false
			}
			return math.NaN(), 0, true
		}
		return (x*float64(avgc) - v) / float64(avgc-1), avgc - 1, true
	}
	return x, avgc, false // Min, Max: folding is lossy, never invertible
}

// tombstone kills the tuple at global position pos: the slot stays in
// place (positional indexing over fixed-size shards must never shift)
// but its sources count drops to zero, every view and scan skips it,
// and its key leaves the index so a later emission on the same
// coordinates appends a fresh tuple.
func (mt *MappedTable) tombstone(pos int) {
	j := pos & shardMask
	sh := mt.writableShard(pos>>shardShift, j)
	sh.sources[j] = 0
	mt.dead++
	mt.index.delete(tupleKey(sh.coords[j*mt.nd:(j+1)*mt.nd], sh.times[j]), pos)
}

// retractInto unfolds the retracted source tuples out of a warm-clone
// version-mode table. It returns false when the mode cannot absorb the
// retraction exactly; the caller evicts it and the mode rebuilds cold
// on next access. The table may be left part-mutated on false — every
// touched shard is a private copy, so the caller simply discards the
// clone.
func (s *Schema) retractInto(ctx context.Context, out *MappedTable, retracted *factShard) bool {
	nd, nm := out.nd, out.nm
	// Recompute the exact emissions the retracted tuples contributed.
	// Resolution and mapping are deterministic, so running the tuples
	// through the table's own graph again reproduces the original
	// emissions bit for bit. They are collected, not folded: whether a
	// cell is tombstoned or subtracted from depends on all of them.
	var (
		coords []int32
		times  []temporal.Instant
		values []float64
		cfs    []Confidence
	)
	collect := func(c []int32, t temporal.Instant, v []float64, cf []Confidence) {
		coords = append(coords, c...)
		times = append(times, t)
		values = append(values, v...)
		cfs = append(cfs, cf...)
	}
	dropped, err := s.mapShards(ctx, out.graph, out.leafIn, []*factShard{retracted}, collect)
	if err != nil {
		return false
	}
	out.Dropped -= dropped

	// Group the emissions by the cell they folded into, in emission
	// order (subtraction order must be deterministic).
	type cellPlan struct {
		pos   int
		emits []int
	}
	byPos := make(map[int]*cellPlan)
	order := make([]*cellPlan, 0, len(times))
	for i := range times {
		c := coords[i*nd : (i+1)*nd]
		pos, ok := out.find(tupleKey(c, times[i]), c, times[i])
		if !ok {
			// The table holds no tuple this emission folded into — the
			// warm state disagrees with the retraction; rebuild cold.
			return false
		}
		pl := byPos[pos]
		if pl == nil {
			pl = &cellPlan{pos: pos}
			byPos[pos] = pl
			order = append(order, pl)
		}
		pl.emits = append(pl.emits, i)
	}

	// A partially retracted cell needs invertible folds for every
	// measure of the table.
	partial := false
	for _, pl := range order {
		sh, j := out.shardAt(pl.pos)
		src := int(sh.sources[j])
		if len(pl.emits) > src {
			return false
		}
		if len(pl.emits) < src {
			partial = true
		}
	}
	if partial {
		for _, m := range out.measures {
			if m.Agg == Min || m.Agg == Max {
				return false
			}
		}
	}

	tombShards := make(map[int]bool)
	for _, pl := range order {
		si := pl.pos >> shardShift
		j := pl.pos & shardMask
		if src := int(out.shards[si].sources[j]); len(pl.emits) == src {
			out.tombstone(pl.pos)
			tombShards[si] = true
			continue
		}
		sh := out.writableShard(si, j)
		vals := sh.values[j*nm : (j+1)*nm]
		for _, ei := range pl.emits {
			// Subtraction cannot un-combine ⊗cf; it is only safe when the
			// retracted emission's confidences are the source-data grade,
			// whose removal leaves the cell's combined confidence
			// unchanged in both built-in algebras.
			ecfs := cfs[ei*nm : (ei+1)*nm]
			for k := 0; k < nm; k++ {
				if ecfs[k] != SourceData {
					return false
				}
			}
			evals := values[ei*nm : (ei+1)*nm]
			for k := 0; k < nm; k++ {
				var avgc int32
				if sh.avgN != nil {
					avgc = sh.avgN[j*nm+k]
				}
				nv, nc, ok := unfoldPair(out.measures[k].Agg, vals[k], avgc, evals[k])
				if !ok {
					return false
				}
				vals[k] = nv
				if sh.avgN != nil {
					sh.avgN[j*nm+k] = nc
				}
			}
		}
		sh.sources[j] -= int32(len(pl.emits))
	}

	// Tombstones shrink the coordinate/time envelope a shard's zone map
	// summarizes. A stale zone would still be conservative (it only
	// over-approximates), but re-sealing the touched shards keeps
	// pruning tight; appends into the tail shard invalidate as usual.
	for si := range tombShards {
		sh := out.shards[si]
		sh.zone.Store(buildZone(sh, nd))
	}
	return true
}
