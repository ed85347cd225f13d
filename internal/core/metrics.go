package core

import "mvolap/internal/obs"

// Engine-level metrics, registered on the process-wide registry and
// served by internal/server at GET /metrics. Names and semantics are
// documented in docs/observability.md.
var (
	metFactsScanned = obs.Default().Counter(
		"mvolap_query_facts_scanned_total",
		"Stored facts scanned by query aggregation (zone-pruned shards excluded).")
	metShardsPruned = obs.Default().Counter(
		"mvolap_query_shards_pruned_total",
		"Fact-table shards skipped by zone-map pruning during query scans.")
	metFactsPruned = obs.Default().Counter(
		"mvolap_query_facts_pruned_total",
		"Stored facts inside zone-pruned shards (work avoided by the scan).")
	metQueryRows = obs.Default().Counter(
		"mvolap_query_rows_total",
		"Result rows emitted by query aggregation.")
	metQueryCancelled = obs.Default().Counter(
		"mvolap_query_cancelled_total",
		"Queries abandoned on context cancellation or deadline.")
	metShardsShared = obs.Default().Counter(
		"mvolap_mvft_shards_shared_total",
		"Fact-table storage shards shared wholesale (header copy only) by copy-on-write clones.")
	metShardsPrivatized = obs.Default().Counter(
		"mvolap_mvft_shards_privatized_total",
		"Shared fact-table storage shards copied because a write (a replacement or a retraction) went into a slot another generation still reads.")
	metShardsBorrowed = obs.Default().Counter(
		"mvolap_mvft_shards_borrowed_total",
		"Shared partial tail shards a clone appended to in place after claiming the next slot (a header of its own over the same columns, no copy).")
	metDimensionCopies = obs.Default().CounterVec(
		"mvolap_dimension_copies_total",
		"Dimensions whose members and relationships a mutator copied because a clone still shared them (one per dimension an evolve touches; none for a fact batch).",
		"dim")
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
		"Owned key-index tops frozen into a shared layer by their owner's own write (the fact table's).")
	metKeyIndexMerged = obs.Default().Counter(
		"mvolap_key_index_merged_entries_total",
		"Key-index entries rewritten by geometric layer merges and flattens: the write-path work that is not O(batch).")
	metKeyIndexFlattens = obs.Default().Counter(
		"mvolap_key_index_flattens_total",
		"Key-index overlays folded into a fresh bottom layer because they outgrew a quarter of it (O(table) once per quarter-table of writes).")
	metKeyIndexOverflow = obs.Default().Counter(
		"mvolap_key_index_overflow_total",
		"Key-index puts whose 64-bit key hash another live key already owned, stored in the generation's overflow map instead.")
	metResolveTablesBuilt = obs.Default().CounterVec(
		"mvolap_resolve_tables_built_total",
		"Resolution tables built: one walk of the mapping graph from every member version of a dimension, per (version-chain entry, mapping set) on first use by a version-mode query.",
		"dim")
	metRollupTablesBuilt = obs.Default().CounterVec(
		"mvolap_rollup_tables_built_total",
		"Rollup tables built: one upward walk over every member version of a dimension, per (version-chain entry, level) on first use; an entry whose hash an earlier generation had keeps that generation's tables.",
		"dim")
)
