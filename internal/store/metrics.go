package store

import "mvolap/internal/obs"

// Persistence metrics, served back out at GET /metrics. Names are
// documented in docs/persistence.md.
var (
	metWriteStageSeconds = obs.Default().HistogramVec(
		"mvolap_write_stage_seconds",
		"Where a write's time went, by op (evolve, facts, retract) and stage: decode (read and parse the body), queue (wait for the write mutex), clone, apply, wal (append + fsync), publish (swap + result-cache invalidation), snapshot (the automatic one, when due). Recovery and followers feed clone and apply.",
		nil, "op", "stage")
	metWALAppends = obs.Default().CounterVec(
		"mvolap_store_wal_appends_total",
		"WAL records appended, by record type.",
		"type")
	metWALBytes = obs.Default().Counter(
		"mvolap_store_wal_bytes_total",
		"Bytes appended to the WAL (framing included).")
	metWALFsyncs = obs.Default().Counter(
		"mvolap_store_wal_fsyncs_total",
		"fsync calls issued on the WAL.")
	metWALFsyncSeconds = obs.Default().Histogram(
		"mvolap_store_wal_fsync_seconds",
		"WAL fsync latency.", nil)
	metWALLastSeq = obs.Default().Gauge(
		"mvolap_store_wal_last_seq",
		"Sequence number of the last appended WAL record.")
	metWALSinceSnapshot = obs.Default().Gauge(
		"mvolap_store_wal_records_since_snapshot",
		"WAL records appended since the latest snapshot.")
	metSnapshots = obs.Default().CounterVec(
		"mvolap_store_snapshots_total",
		"Snapshots taken, by trigger (auto, admin).",
		"trigger")
	metSnapshotSeconds = obs.Default().Histogram(
		"mvolap_store_snapshot_seconds",
		"Snapshot write + WAL rotation duration.", nil)
	metSnapshotStageSeconds = obs.Default().HistogramVec(
		"mvolap_store_snapshot_stage_seconds",
		"Snapshot duration by stage: write (encode into the temp file), sync (fsync, rename, directory fsync), rotate (start the next WAL file), compact (delete superseded files).",
		nil, "stage")
	metSnapshotBytes = obs.Default().Gauge(
		"mvolap_store_snapshot_bytes",
		"Size of the latest snapshot file.")
	metRecoverySeconds = obs.Default().Histogram(
		"mvolap_store_recovery_seconds",
		"Crash-recovery duration (snapshot load + WAL replay).", nil)
	metRecoveryRecords = obs.Default().Counter(
		"mvolap_store_recovery_replayed_total",
		"WAL records replayed during recovery.")
	metRecoveryTornBytes = obs.Default().Counter(
		"mvolap_store_recovery_torn_bytes_total",
		"Trailing WAL bytes dropped during recovery (torn final record).")
	metReplApplied = obs.Default().Counter(
		"mvolap_repl_applied_total",
		"WAL records applied by this follower (bootstraps not included).")
	metReplLag = obs.Default().Gauge(
		"mvolap_repl_lag_records",
		"Replication lag in WAL records: leader's last known committed sequence minus the follower's applied sequence.")
	metReplReconnects = obs.Default().Counter(
		"mvolap_repl_reconnects_total",
		"Follower replication stream reconnect attempts (bootstrap retries included).")
)
