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
		"Shared fact-table storage shards copied because an append went into columns another generation still reads (an append whose slot a sibling claimed, a widening of a borrowed tail); a retraction or a correction copies none.")
	metShardsBorrowed = obs.Default().Counter(
		"mvolap_mvft_shards_borrowed_total",
		"Shared shards a clone took a header of its own over, with a copy of the live bitmap and no column copy: a partial tail it appends to in place after claiming the next slot, or a shard whose live bit a retraction clears.")
	metFactCompactions = obs.Default().Counter(
		"mvolap_fact_compactions_total",
		"Fact-table compactions: a tombstone left more than half of the slots of a table's shards dead, so its live tuples were appended again, in order, into fresh shards.")
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
	metResolveTablesBuilt = obs.Default().CounterVec(
		"mvolap_resolve_tables_built_total",
		"Resolution tables built: one walk of the mapping graph from every member version of a dimension, per (version-chain entry, mapping set) on first use by a version-mode query.",
		"dim")
	metRollupTablesBuilt = obs.Default().CounterVec(
		"mvolap_rollup_tables_built_total",
		"Rollup tables built: one upward walk over every member version of a dimension, per (version-chain entry, level) on first use; an entry whose hash an earlier generation had keeps that generation's tables.",
		"dim")
)
