package core

import (
	"context"
	"runtime"
	"sync"

	"mvolap/internal/temporal"
)

// Delta describes what one accepted mutation batch changed between a
// base schema and its evolved clone, precisely enough for incremental
// MVFT maintenance to decide, per cached mode, between folding the
// change in and rebuilding from zero.
type Delta struct {
	// NewFacts is the suffix of the clone's fact table appended by the
	// batch, in insertion order (FactTable.Since). Appends never rewrite
	// earlier tuples, so folding this suffix through the mapping graph
	// reproduces, bit for bit, the tail of a cold rebuild.
	NewFacts []*Fact
	// Retracted lists the old tuples a retract batch removed from the
	// fact table, in batch order. Carrying the full tuple (not just its
	// key) lets WarmFrom recompute the exact emissions it contributed
	// and subtract them out of retained modes under invertible
	// aggregates; version modes it cannot unfold exactly are evicted
	// instead (see Schema.retractInto).
	Retracted []*Fact
	// FactsReplaced reports that the batch overwrote values at existing
	// coordinates (FactTable.Insert replaces — the fact table is a
	// function). A replacement is not an insert-only delta: merged
	// tuples already folded the old value, so every cached version mode
	// is evicted. tcm, the fact table itself, holds the new values.
	FactsReplaced bool
	// FactsWindow, when FactsWindowKnown, is the hull of the instants
	// of every fact the batch inserted or replaced. Whether a tuple was
	// appended or overwritten, only its own instant's value changed, so
	// a query result computed over a time range disjoint from this
	// window is byte-identical before and after the batch — the TQL
	// result cache revalidates such entries instead of dropping them.
	FactsWindow      temporal.Interval
	FactsWindowKnown bool
	// StructureAdditive reports that every structural mutation in the
	// batch only created fresh member versions with relationships up to
	// their parents — nothing pre-existing was modified, ended, or
	// given a new child-to-parent edge. No already-stored fact can roll
	// up through a freshly created member (its coordinates predate it,
	// and upward paths from them were not extended), so query results
	// computed before the batch are byte-identical after it.
	StructureAdditive bool
	// StructureChanged reports that any dimension was mutated in place
	// (evolution operators). Version modes then retain their tables
	// only when their structure version provably survived unchanged.
	StructureChanged bool
	// MappingsChanged reports that the set of mapping relationships
	// changed (Associate). The mapping graph is global — resolution may
	// route through any relationship — so every version mode is
	// evicted; tcm does not use the graph and survives.
	MappingsChanged bool
	// DimsTouched lists the dimensions the batch mutated, for
	// observability; retention itself is decided by the structural
	// signature comparison below, which is safe for operators that do
	// not report their footprint.
	DimsTouched []DimID
}

// WarmResult reports what WarmFrom did, per temporal mode.
type WarmResult struct {
	// Retained modes answer queries on the new schema without a
	// rematerialization; those with a non-empty fact delta had it
	// folded in (DeltaApplied).
	Retained []string
	// Evicted modes rebuild lazily on first use.
	Evicted []string
	// DeltaApplied counts retained modes into which the fact delta was
	// folded.
	DeltaApplied int
	// Subtracted counts retained modes that absorbed a retraction by
	// unfolding (tombstones and/or subtraction) instead of rebuilding.
	Subtracted int
	// Sealed and Merged report the key-index maintenance this generation
	// has paid since it was cloned, over the source fact table and every
	// retained mode: layers sealed, and entries rewritten by layer merges
	// and flattens — the one part of a write that is not O(batch), so a
	// Merged in the order of the table size names a flatten.
	Sealed, Merged int
}

// WarmFrom seeds the schema's MultiVersion Fact Table from the modes
// already materialized on base, applying only the delta — the serving
// tier's answer to the §5.1 observation that evolution should store
// changes, not duplicate the warehouse. It is called on a clone right
// before it is swapped into service, while base still serves queries.
//
// Retention is structure-aware:
//
//   - tcm is the fact table, which the batch already wrote: always
//     retained, never folded, counted as DeltaApplied when the batch
//     appended or retracted facts and as Subtracted when it retracted.
//   - a version mode Vi is retained when the mapping set is unchanged
//     and the new schema has a structure version with the same ID, the
//     same valid time and the same structural signature (member
//     versions and relationships); its table then only absorbs the
//     fact delta. Anything else — new partitioning, touched interval,
//     changed mappings — evicts the mode.
//
// Folding the delta replays exactly the add() suffix a cold rebuild
// would run after the base facts, so retained tables are bit-identical
// to full rematerialization (see TestIncrementalMatchesColdRebuild).
// Published base tables are never mutated: folding happens on
// copy-on-write clones that share the base's storage shards wholesale,
// append into the shared partial tail in place once they claim its
// next slot, and privatize only the shards whose shared slots the
// delta writes into, so a swap costs O(shards touched), not
// O(warehouse), and in-flight queries on base keep their consistent
// snapshots. Retained modes fold their deltas
// concurrently — each mode's fold is independent and deterministic, so
// the parallelism cannot change a single bit of any table. This is the
// engine's one fan-out: writes serialize on the serving tier's writer
// lock, so a write is the one request that has the other cores to
// itself, while concurrent queries, each on its own goroutine, already
// keep them busy.
//
// Retained modes do not count as Materializations; they count as
// DeltaApplies when the batch carried a fact delta. A ctx cancellation
// mid-fold simply evicts the affected modes — the swap must not fail
// because warming was abandoned. The half-folded clone is dropped; the
// tail slots it claimed stay claimed, so a sibling generation copies
// those tails instead of appending into them.
func (s *Schema) WarmFrom(ctx context.Context, base *Schema, d Delta) WarmResult {
	var res WarmResult
	tables := base.finishedModes() // a mode still building stays base's
	if len(tables) == 0 {
		return res
	}

	// Resolve the new schema's version modes by ID once; retention also
	// needs the base's structure versions for the signature comparison.
	dstModes := map[string]Mode{}
	for _, sv := range s.StructureVersions() {
		dstModes[sv.ID] = InVersion(sv)
	}
	baseSVs := map[string]*StructureVersion{}
	for _, sv := range base.StructureVersions() {
		baseSVs[sv.ID] = sv
	}

	// tcm is the fact store, which the batch already wrote: it is
	// retained with nothing to fold. Version modes fold the delta's
	// tuples, laid out in the store's ordinal columns once for all; a
	// delta naming a member version the schema lacks evicts them.
	added, okAdded := s.facts.shardOf(d.NewFacts)
	retracted, okRetracted := s.facts.shardOf(d.Retracted)
	type job struct {
		key  string
		src  *MappedTable
		mode Mode
	}
	var jobs []job
	for _, t := range tables {
		if t.table.Mode.Kind == TCMKind {
			jobs = append(jobs, job{key: t.key})
			continue
		}
		mode, ok := dstModes[t.key]
		if !ok || !okAdded || !okRetracted || d.FactsReplaced || !s.retains(baseSVs, mode, d) || ctx.Err() != nil {
			res.Evicted = append(res.Evicted, t.key)
			continue
		}
		jobs = append(jobs, job{t.key, t.table, mode})
	}

	if len(d.Retracted) > 0 {
		metRetractionsApplied.Add(int64(len(d.Retracted)))
	}

	// Clone and fold every retained version mode concurrently. Each
	// mode's fold is independent (private clone, read-only mapping graph)
	// and deterministic, so results are assembled in sorted key order
	// regardless of completion order.
	folded := make([]*MappedTable, len(jobs))
	retractEvict := make([]bool, len(jobs))
	workers := min(len(jobs), runtime.GOMAXPROCS(0))
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, j := range jobs {
		if j.src == nil {
			folded[i] = s.facts.table()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out := j.src.cloneForWarm(s, j.mode)
			// Retractions unfold first: the fact table tombstoned the
			// retracted tuples before appending anything, so the warm
			// table must shed them before new facts fold in.
			if retracted.n > 0 && !s.retractInto(ctx, out, retracted) {
				retractEvict[i] = true
				return // folded[i] stays nil: evicted
			}
			if added.n > 0 && s.mapInto(ctx, out, []*factShard{added}) != nil {
				return // abandoned half folded: evicted
			}
			folded[i] = out
		}(i)
	}
	wg.Wait()

	warm := make(map[string]*MappedTable, len(jobs))
	res.Sealed, res.Merged = s.facts.index.sealed, s.facts.index.merged
	evictedByRetract := 0
	for i, j := range jobs {
		if folded[i] == nil {
			res.Evicted = append(res.Evicted, j.key)
			if retractEvict[i] {
				evictedByRetract++
			}
			continue
		}
		warm[j.key] = folded[i]
		if j.src != nil {
			res.Sealed += folded[i].index.sealed
			res.Merged += folded[i].index.merged
		}
		res.Retained = append(res.Retained, j.key)
		if len(d.NewFacts) > 0 || len(d.Retracted) > 0 {
			res.DeltaApplied++
		}
		if len(d.Retracted) > 0 {
			res.Subtracted++
		}
	}
	metModesSubtracted.Add(int64(res.Subtracted))
	metModesEvictedByRetract.Add(int64(evictedByRetract))

	if len(warm) > 0 {
		mv := s.MultiVersion()
		mv.mu.Lock()
		for k, mt := range warm {
			mv.byMode[k] = finishedEntry(mt)
		}
		mv.mu.Unlock()
		mv.deltas.Add(int64(res.DeltaApplied))
	}
	metDeltaApplies.Add(int64(res.DeltaApplied))
	metModesRetained.Add(int64(len(res.Retained)))
	metModesEvicted.Add(int64(len(res.Evicted)))
	return res
}

// retains decides whether one of base's cached version modes is still
// valid on the (already mutated) receiver under the given delta.
func (s *Schema) retains(baseSVs map[string]*StructureVersion, mode Mode, d Delta) bool {
	if d.MappingsChanged {
		return false
	}
	if !d.StructureChanged && len(d.DimsTouched) == 0 {
		// A pure fact batch: dimensions were cloned unchanged.
		return true
	}
	// The mode survives iff base had a version with its ID, interval and
	// structural signature. Structure versions are maximal
	// constant-signature intervals, so agreement at Start means agreement
	// throughout — the structure, and with it every leaf set and
	// resolution, is identical. Both versions are inferred (a composed one
	// is never among a schema's modes), so both are signed.
	old, ok := baseSVs[mode.Version.ID]
	return ok && old.Valid == mode.Version.Valid && old.sig == mode.Version.sig
}

// cloneForWarm returns a copy-on-write clone of a published mapped
// table, rebound to the new schema's mode, algebra, measures and
// dimensions (which hold every version the source's ordinals name),
// ready to absorb a fact delta. The clone shares the source's list of
// shard headers until its first write copies it — never the tuples —
// and takes a fresh epoch, so every inherited shard is shared: an
// append borrows the partial tail
// (MappedTable.tailShard), a write into a shared slot privatizes its
// shard (MappedTable.writableShard). The materialization context
// (mapping graph, leaf sets) rides along: warm retention guarantees
// the mapping set and structural signature are unchanged, so the next
// delta fold reuses both instead of rebuilding O(structure) state.
func (mt *MappedTable) cloneForWarm(s *Schema, m Mode) *MappedTable {
	out := &MappedTable{
		Mode:   m,
		shards: mt.shards,
		// The source's own writes, if any, copy the list as well (see
		// FactTable.clone).
		shardsShared: true,
		n:            mt.n,
		dead:         mt.dead,
		epoch:        shardEpochCounter.Add(1),
		nd:           mt.nd,
		nm:           mt.nm,
		dims:         s.dims,
		Dropped:      mt.Dropped,
		alg:          s.alg,
		measures:     s.measures,
		hasAvg:       mt.hasAvg,
		graph:        mt.graph,
		leafIn:       mt.leafIn,
		// Published tables are never written again, so even the live top
		// of a cold-built source can be shared (keyIndex.clone).
		index: mt.index.clone(mt.n),
	}
	metShardsShared.Add(int64(len(mt.shards)))
	return out
}
