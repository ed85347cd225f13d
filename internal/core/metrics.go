package core

import "mvolap/internal/obs"

// Engine-level metrics, registered on the process-wide registry and
// served by internal/server at GET /metrics. Names and semantics are
// documented in docs/observability.md.
var (
	metMaterializeSeconds = obs.Default().HistogramVec(
		"mvolap_materialize_seconds",
		"MVFT materialization duration per temporal mode of presentation.",
		nil, "mode")
	metModeCacheHits = obs.Default().Counter(
		"mvolap_mode_cache_hits_total",
		"Mode requests served from an already-materialized (or in-flight) MVFT restriction.")
	metModeCacheMisses = obs.Default().Counter(
		"mvolap_mode_cache_misses_total",
		"Mode requests that had to materialize the MVFT restriction.")
	metMaterializeDropped = obs.Default().Counter(
		"mvolap_materialize_dropped_total",
		"Source facts dropped during materialization because no mapping chain reaches the target structure version.")
	metFactsScanned = obs.Default().Counter(
		"mvolap_query_facts_scanned_total",
		"Mapped facts scanned by query aggregation (zone-pruned shards excluded).")
	metShardsPruned = obs.Default().Counter(
		"mvolap_query_shards_pruned_total",
		"MappedTable shards skipped by zone-map pruning during query scans.")
	metFactsPruned = obs.Default().Counter(
		"mvolap_query_facts_pruned_total",
		"Mapped facts inside zone-pruned shards (work avoided by the scan).")
	metQueryRows = obs.Default().Counter(
		"mvolap_query_rows_total",
		"Result rows emitted by query aggregation.")
	metQueryCancelled = obs.Default().Counter(
		"mvolap_query_cancelled_total",
		"Queries or materializations abandoned on context cancellation or deadline.")
	metDeltaApplies = obs.Default().Counter(
		"mvolap_mvft_delta_applies_total",
		"Retained MVFT modes that absorbed a fact batch incrementally instead of rematerializing.")
	metModesRetained = obs.Default().Counter(
		"mvolap_mvft_modes_retained_total",
		"Cached MVFT modes carried across a schema clone-swap by structure-aware invalidation.")
	metModesEvicted = obs.Default().Counter(
		"mvolap_mvft_modes_evicted_total",
		"Cached MVFT modes dropped across a schema clone-swap because their structure or mappings changed.")
	metShardsShared = obs.Default().Counter(
		"mvolap_mvft_shards_shared_total",
		"MappedTable storage shards shared wholesale (header copy only) by warm copy-on-write clones.")
	metShardsPrivatized = obs.Default().Counter(
		"mvolap_mvft_shards_privatized_total",
		"Shared MappedTable storage shards copied because a delta fold wrote into a slot another generation still reads.")
	metShardsBorrowed = obs.Default().Counter(
		"mvolap_mvft_shards_borrowed_total",
		"Shared partial tail shards a warm clone appended to in place after claiming the next slot (a header of its own over the same columns, no copy).")
	metDimensionCopies = obs.Default().CounterVec(
		"mvolap_dimension_copies_total",
		"Dimensions whose members and relationships a mutator copied because a clone still shared them (one per dimension an evolve touches; none for a fact batch).",
		"dim")
	metFactListCopies = obs.Default().CounterVec(
		"mvolap_fact_list_copies_total",
		"Copies of the source fact table's pointer list: retract and replace write below the shared length, claim_lost is an append whose slot another generation took, full an append past the capacity.",
		"reason")
	metRetractionsApplied = obs.Default().Counter(
		"mvolap_mvft_retractions_applied_total",
		"Retracted source facts handed to warm MVFT maintenance (per tuple, per batch).")
	metModesSubtracted = obs.Default().Counter(
		"mvolap_mvft_modes_subtracted_total",
		"Retained MVFT modes that absorbed a retraction by unfolding (tombstone/subtract) instead of rebuilding.")
	metModesEvictedByRetract = obs.Default().Counter(
		"mvolap_mvft_modes_evicted_by_retract_total",
		"Cached MVFT modes evicted because a retraction could not be unfolded exactly (Min/Max, non-source confidence, or inconsistent cell state).")
	metStructureVersionsSeconds = obs.Default().Histogram(
		"mvolap_structure_versions_seconds",
		"Duration of one structure-version derivation (Definition 9), the sweeps of the dimensions it re-swept included.",
		nil)
	metStructureVersionsRecomputed = obs.Default().CounterVec(
		"mvolap_structure_versions_recomputed_total",
		"Version-chain entries derived by a dimension's sweep: one sweep per mutated dimension, on first use after the mutation.",
		"dim")
	metKeyIndexSeals = obs.Default().Counter(
		"mvolap_key_index_seals_total",
		"Owned key-index tops frozen into a shared layer by their owner's own write (source fact table and every mapped table).")
	metKeyIndexMerged = obs.Default().Counter(
		"mvolap_key_index_merged_entries_total",
		"Key-index entries rewritten by geometric layer merges and flattens: the write-path work that is not O(batch).")
	metKeyIndexFlattens = obs.Default().Counter(
		"mvolap_key_index_flattens_total",
		"Key-index overlays folded into a fresh bottom layer because they outgrew a quarter of it (O(table) once per quarter-table of writes).")
	metKeyIndexOverflow = obs.Default().Counter(
		"mvolap_key_index_overflow_total",
		"Key-index puts whose 64-bit key hash another live key already owned, stored in the generation's overflow map instead.")
	metRollupTablesBuilt = obs.Default().CounterVec(
		"mvolap_rollup_tables_built_total",
		"Rollup tables built: one upward walk over every member version of a dimension, per (version-chain entry, level) on first use; an entry whose hash an earlier generation had keeps that generation's tables.",
		"dim")
)
