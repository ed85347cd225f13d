// Package store is the durable persistence subsystem of the serving
// tier. The paper reduces every structural evolution to a short
// sequence of instance-level operators (§3.2, Table 11), which makes
// the mutation history of the warehouse a naturally loggable sequence:
// the store appends each accepted mutation — an evolution script or a
// fact batch — to an append-only, CRC-checksummed write-ahead log
// before it is swapped into the served schema, and periodically
// freezes the whole warehouse into a snapshot (via schemaio) so the
// log can be truncated.
//
// Every write is a Mutation and goes through one routine, commit
// (mutation.go): the leader's handlers with the log to append to,
// crash recovery and followers with a record that is already logged.
// Crash recovery loads the latest valid snapshot and replays the WAL
// tail through it, tolerating a torn final record (the one write that
// was in flight when the process died).
//
// Durability is configurable: fsync on every append (no acknowledged
// mutation is ever lost), on a background interval (bounded loss,
// much higher throughput), or never (the OS decides).
package store

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/obs"
)

// FsyncPolicy says when the WAL is flushed to stable storage.
type FsyncPolicy uint8

const (
	// FsyncAlways syncs after every append: an acknowledged mutation
	// survives any crash.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background ticker: a crash loses at
	// most the last fsyncInterval of acknowledged mutations.
	FsyncInterval
	// FsyncOff never syncs explicitly; the OS page cache decides.
	FsyncOff
)

// fsyncInterval is the background flush period under FsyncInterval.
const fsyncInterval = 100 * time.Millisecond

// ParseFsyncPolicy parses "always", "interval" or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or off)", s)
}

// String renders the flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return "off"
	}
}

// Options configures a Store.
type Options struct {
	// Fsync is the WAL flush policy. The default (zero value) is
	// FsyncAlways.
	Fsync FsyncPolicy
	// SnapshotEvery takes an automatic snapshot after this many WAL
	// records since the last one; 0 disables automatic snapshots.
	SnapshotEvery int
	// SnapshotWarm is ignored: a snapshot carries facts and structure
	// only, and every temporal mode rebuilds on first use.
	//
	// Deprecated: it has no effect. It is removed with the benchmark
	// module's serial replay, its last user (ROADMAP item 2).
	SnapshotWarm bool
	// Logger receives recovery and compaction logs; nil means
	// slog.Default().
	Logger *slog.Logger
}

// RecoveryStats reports what Open did to reconstruct the warehouse.
type RecoveryStats struct {
	// SnapshotSeq is the WAL sequence covered by the loaded snapshot
	// (0 when booting from the seed schema).
	SnapshotSeq uint64
	// SnapshotPath is the loaded snapshot file ("" when none existed).
	SnapshotPath string
	// Replayed is the number of WAL records replayed.
	Replayed int
	// TornBytes is the size of the truncated torn tail, if any.
	TornBytes int64
	// WarmModes is always empty: recovery restores no temporal mode.
	//
	// Deprecated: it is always empty. It is removed with the benchmark
	// module's serial replay, its last reader (ROADMAP item 2).
	WarmModes []string
	// Duration is the total recovery time.
	Duration time.Duration
	// Trace is the recovery span tree (load-snapshot, then replay-wal).
	Trace *obs.SpanNode
}

// Store is a durable WAL + snapshot store rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	dir    string
	opts   Options
	logger *slog.Logger

	mu      sync.Mutex
	wal     *os.File
	walPath string
	walSize int64  // committed bytes of walPath (never covers a rolled-back frame)
	seq     uint64 // last appended (or replayed) record
	snapSeq uint64 // sequence covered by the latest snapshot
	// snapTried is the sequence at which Snapshot last ran, successfully
	// or not: after a failure the next automatic snapshot is due
	// SnapshotEvery records later, not on the very next append.
	snapTried uint64
	snapBytes int64 // size of the latest snapshot file
	// snapErr is why the newest snapshot recovery skipped did not load.
	snapErr error
	dirty   bool // unsynced appends pending (interval policy)
	closed  bool
	stats   RecoveryStats
	// appendCh is closed and replaced on every committed append (and on
	// Close), waking WAL stream readers; never nil.
	appendCh chan struct{}
	// fsyncHook overrides the WAL fsync in fault-injection tests; nil
	// means the real (*os.File).Sync.
	fsyncHook func() error

	flushStop chan struct{}
	flushDone chan struct{}
}

// Open opens (creating if needed) the store in dir and recovers the
// warehouse: latest valid snapshot, then the WAL tail replayed through
// commit, the leader's own write path. seed is the
// schema to start from when no snapshot exists (the -schema/-demo
// warehouse); it must be the same warehouse across restarts, since WAL
// records replay against it. Open returns the recovered schema and an
// applier carrying the recovered evolution log.
func Open(dir string, seed *core.Schema, opts Options) (*Store, *core.Schema, *evolution.Applier, error) {
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("store: %w", err)
	}
	st := &Store{dir: dir, opts: opts, logger: logger, appendCh: make(chan struct{})}

	start := time.Now()
	ctx, root := obs.NewTrace(context.Background(), "recovery")
	sch, applier, err := st.recover(ctx, seed)
	root.End()
	if err != nil {
		return nil, nil, nil, err
	}
	st.stats.Duration = time.Since(start)
	st.stats.Trace = root.Node()
	metRecoverySeconds.Observe(st.stats.Duration.Seconds())
	metWALLastSeq.Set(int64(st.seq))
	metWALSinceSnapshot.Set(int64(st.seq - st.snapSeq))
	metSnapshotBytes.Set(st.snapBytes)

	st.compactLocked()

	if opts.Fsync == FsyncInterval {
		st.flushStop = make(chan struct{})
		st.flushDone = make(chan struct{})
		go st.flushLoop()
	}
	logger.Info("store recovered",
		"dir", dir, "snapshotSeq", st.stats.SnapshotSeq, "snapshot", st.stats.SnapshotPath,
		"replayed", st.stats.Replayed, "tornBytes", st.stats.TornBytes,
		"lastSeq", st.seq, "ms", float64(st.stats.Duration)/float64(time.Millisecond))
	return st, sch, applier, nil
}

// recover performs the snapshot load and WAL replay. It runs before
// the store is published, so it touches fields without the lock.
func (st *Store) recover(ctx context.Context, seed *core.Schema) (*core.Schema, *evolution.Applier, error) {
	// Load the newest snapshot that parses; older ones are fallbacks
	// in case of on-disk corruption. Every mode starts cold and builds
	// on first use.
	_, span := obs.StartSpan(ctx, "load-snapshot")
	sch, applier, err := st.loadLatestSnapshot(seed)
	span.End()
	if err != nil {
		return nil, nil, err
	}

	_, span = obs.StartSpan(ctx, "replay-wal")
	sch, applier, err = st.replayWAL(sch, applier, span)
	span.End()
	if err != nil {
		return nil, nil, err
	}
	return sch, applier, nil
}

// loadLatestSnapshot picks the newest readable snapshot, or falls back
// to the seed schema when none exists. Falling back is only sound if
// the WAL still reaches back far enough; replayWAL checks that.
func (st *Store) loadLatestSnapshot(seed *core.Schema) (*core.Schema, *evolution.Applier, error) {
	names, _, err := listBySeq(st.dir, "snapshot-", snapshotExt)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(st.dir, names[i])
		data, err := os.ReadFile(path)
		if err != nil {
			st.logger.Warn("store: skipping unreadable snapshot", "path", path, "err", err)
			continue
		}
		sch, applier, seq, err := loadSnapshot(data, path)
		if err != nil {
			st.logger.Warn("store: skipping unreadable snapshot", "path", path, "err", err)
			if st.snapErr == nil {
				st.snapErr = err
			}
			continue
		}
		st.snapSeq, st.seq, st.snapBytes = seq, seq, int64(len(data))
		st.stats.SnapshotSeq, st.stats.SnapshotPath = seq, path
		return sch, applier, nil
	}
	if seed == nil {
		return nil, nil, st.whyUnloaded(fmt.Errorf("store: %s has no readable snapshot%s and no seed schema was given", st.dir, st.unloadedSnapshots()))
	}
	return seed, evolution.NewApplier(seed), nil
}

// whyUnloaded adds to a refusal to start why the newest snapshot that
// recovery skipped did not load, wrapped, so that a caller can tell a
// snapshot in an earlier format (core.ErrFactsVersion) from a damaged
// one.
func (st *Store) whyUnloaded(err error) error {
	if st.snapErr == nil {
		return err
	}
	return fmt.Errorf("%w: %w", err, st.snapErr)
}

// unloadedSnapshots names, for a refusal message, every snapshot-* file
// in the directory that recovery did not load: unreadable containers,
// and files in a format this build does not read.
func (st *Store) unloadedSnapshots() string {
	paths, _ := filepath.Glob(filepath.Join(st.dir, "snapshot-*"))
	var names []string
	for _, path := range paths {
		if path != st.stats.SnapshotPath && !strings.HasSuffix(path, ".tmp") {
			names = append(names, filepath.Base(path))
		}
	}
	if len(names) == 0 {
		return ""
	}
	return " (not loaded: " + strings.Join(names, ", ") + ")"
}

// replayWAL replays every record after the snapshot through commit,
// the routine that served it live, so a recovered schema is
// indistinguishable from one that evolved live.
// A torn final record (crash mid-append) is truncated away; corruption
// anywhere else is an error. The surviving WAL file is reopened for
// appending.
func (st *Store) replayWAL(sch *core.Schema, applier *evolution.Applier, span *obs.Span) (*core.Schema, *evolution.Applier, error) {
	names, seqs, err := listBySeq(st.dir, "wal-", ".log")
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	expected := st.snapSeq + 1
	// A WAL file's name carries its first sequence: a log that starts
	// past the loaded snapshot has a hole even while it holds no record
	// (the tail is empty right after every snapshot), and so has a
	// directory whose only trace of its history is a snapshot that did
	// not load. Booting the seed over either drops acknowledged writes.
	if len(names) > 0 && seqs[0] > expected {
		return nil, nil, st.whyUnloaded(fmt.Errorf("store: %s: missing WAL records %d..%d%s",
			filepath.Join(st.dir, names[0]), expected, seqs[0]-1, st.unloadedSnapshots()))
	}
	if len(names) == 0 && st.stats.SnapshotPath == "" {
		if other := st.unloadedSnapshots(); other != "" {
			return nil, nil, st.whyUnloaded(fmt.Errorf("store: %s has no WAL and no readable snapshot%s", st.dir, other))
		}
	}
	var lastScan *walScan
	var lastPath string
	for i, name := range names {
		path := filepath.Join(st.dir, name)
		scan, err := scanWAL(path)
		if err != nil {
			return nil, nil, err
		}
		if scan.tornBytes > 0 && i != len(names)-1 {
			return nil, nil, fmt.Errorf("store: %s: corrupt record mid-history (%d trailing bytes, but %d newer WAL files exist)",
				path, scan.tornBytes, len(names)-1-i)
		}
		for _, rec := range scan.records {
			if rec.Seq <= st.snapSeq {
				continue // already captured by the snapshot
			}
			if rec.Seq != expected {
				return nil, nil, fmt.Errorf("store: %s: missing WAL records %d..%d", path, expected, rec.Seq-1)
			}
			sch, applier, _, err = applyRecord(sch, applier, rec)
			if err != nil {
				return nil, nil, fmt.Errorf("store: replaying record %d: %w", rec.Seq, err)
			}
			expected++
			st.seq = rec.Seq
			st.stats.Replayed++
			metRecoveryRecords.Inc()
		}
		lastScan, lastPath = scan, path
	}
	span.SetAttr("records", st.stats.Replayed)

	if lastScan == nil {
		// Fresh directory: start the first WAL file.
		st.walPath = filepath.Join(st.dir, walName(st.snapSeq+1))
		f, err := createWAL(st.walPath)
		if err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		if err := syncDir(st.dir); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		st.wal, st.walSize = f, int64(len(walMagic))
		return sch, applier, nil
	}

	f, err := os.OpenFile(lastPath, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if lastScan.tornBytes > 0 {
		st.logger.Warn("store: truncating torn WAL tail",
			"path", lastPath, "bytes", lastScan.tornBytes, "goodSize", lastScan.goodSize)
		if err := f.Truncate(lastScan.goodSize); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: truncating %s: %w", lastPath, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		st.stats.TornBytes = lastScan.tornBytes
		metRecoveryTornBytes.Add(lastScan.tornBytes)
		span.SetAttr("tornBytes", lastScan.tornBytes)
	}
	if _, err := f.Seek(lastScan.goodSize, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	st.wal, st.walPath, st.walSize = f, lastPath, lastScan.goodSize
	return sch, applier, nil
}

// applyRecord replays one logged record — decode it, then the same
// commit the leader ran, without a log to append to — and returns the
// evolved clone, its applier and the delta the record produced.
func applyRecord(sch *core.Schema, ap *evolution.Applier, rec walRecord) (*core.Schema, *evolution.Applier, core.Delta, error) {
	m, err := decodeMutation(rec, len(sch.Measures()))
	if err != nil {
		return nil, nil, core.Delta{}, err
	}
	c, err := commit(context.Background(), nil, sch, ap, m)
	return c.Schema, c.Applier, c.Delta, err
}

// AppendEvolve logs one accepted evolution script (the raw /evolve
// body). It returns the record's sequence number and whether an
// automatic snapshot is due.
func (st *Store) AppendEvolve(script []byte) (uint64, bool, error) {
	data, err := json.Marshal(string(script))
	if err != nil {
		return 0, false, fmt.Errorf("store: %w", err)
	}
	return st.append(RecordEvolve, data)
}

// AppendFactBatch logs one accepted fact batch in canonical form.
func (st *Store) AppendFactBatch(batch []FactRecord) (uint64, bool, error) {
	data, err := json.Marshal(batch)
	if err != nil {
		return 0, false, fmt.Errorf("store: %w", err)
	}
	return st.append(RecordFacts, data)
}

// AppendRetractBatch logs one accepted retract batch in canonical
// form. Callers must have validated every record against the serving
// schema first — the whole batch applies or none of it is logged.
func (st *Store) AppendRetractBatch(batch []RetractRecord) (uint64, bool, error) {
	data, err := json.Marshal(batch)
	if err != nil {
		return 0, false, fmt.Errorf("store: %w", err)
	}
	return st.append(RecordRetract, data)
}

func (st *Store) append(typ string, data json.RawMessage) (uint64, bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, false, fmt.Errorf("store: closed")
	}
	rec := walRecord{Seq: st.seq + 1, Type: typ, Data: data}
	buf, err := encodeRecord(rec)
	if err != nil {
		return 0, false, err
	}
	if payload := len(buf) - recordHeaderSize; payload > maxWALRecord {
		// scanWAL rejects oversized frames, so writing one would ack a
		// record that recovery — and every replica — must then throw
		// away, along with everything appended after it.
		return 0, false, fmt.Errorf("%w: payload is %d bytes, bound is %d", ErrRecordTooLarge, payload, maxWALRecord)
	}
	if _, err := st.wal.Write(buf); err != nil {
		// Roll the file back to the last record boundary so one failed
		// write does not poison every later append with a garbage gap.
		if rerr := st.rollbackLocked(); rerr != nil {
			return 0, false, fmt.Errorf("store: wal write failed (%v) and rollback failed (%v): store disabled", err, rerr)
		}
		return 0, false, fmt.Errorf("store: wal append: %w", err)
	}
	if st.opts.Fsync == FsyncAlways {
		if err := st.syncLocked(); err != nil {
			// The bytes are in the file but the caller is about to be
			// told the append failed: if the record survived, a restart
			// would replay — and a replica replicate — a write the client
			// believes was rejected. Undo the bytes and make the undo
			// durable; a disk that cannot even do that latches the store
			// closed.
			if rerr := st.rollbackLocked(); rerr != nil {
				return 0, false, fmt.Errorf("store: wal fsync failed (%v) and rollback failed (%v): store disabled", err, rerr)
			}
			if serr := st.syncLocked(); serr != nil {
				st.closed = true
				return 0, false, fmt.Errorf("store: wal fsync failed (%v) and rollback fsync failed (%v): store disabled", err, serr)
			}
			return 0, false, fmt.Errorf("store: wal fsync: %w", err)
		}
	}
	// The record is committed: only now do the sequence and the
	// committed size advance, so a concurrent WAL stream can never ship
	// a frame that a failed append later rolls back.
	st.walSize += int64(len(buf))
	st.seq = rec.Seq
	if st.opts.Fsync == FsyncInterval {
		st.dirty = true
	}
	st.notifyLocked()

	metWALAppends.With(typ).Inc()
	metWALBytes.Add(int64(len(buf)))
	metWALLastSeq.Set(int64(st.seq))
	metWALSinceSnapshot.Set(int64(st.seq - st.snapSeq))

	due := st.opts.SnapshotEvery > 0 && st.seq-max(st.snapSeq, st.snapTried) >= uint64(st.opts.SnapshotEvery)
	return st.seq, due, nil
}

// rollbackLocked discards the bytes of a failed append: truncate back
// to the last committed record boundary (st.walSize has not advanced)
// and reseek for the next write. Failure latches the store closed —
// the file may hold a frame whose append was reported as failed.
func (st *Store) rollbackLocked() error {
	if err := st.wal.Truncate(st.walSize); err != nil {
		st.closed = true
		return err
	}
	if _, err := st.wal.Seek(st.walSize, io.SeekStart); err != nil {
		st.closed = true
		return err
	}
	return nil
}

// notifyLocked wakes everything waiting for WAL progress (replication
// stream readers); the caller holds st.mu.
func (st *Store) notifyLocked() {
	close(st.appendCh)
	st.appendCh = make(chan struct{})
}

// syncLocked fsyncs the WAL; the caller holds st.mu. fsyncHook
// substitutes for the real fsync in fault-injection tests.
func (st *Store) syncLocked() error {
	start := time.Now()
	sync := st.wal.Sync
	if st.fsyncHook != nil {
		sync = st.fsyncHook
	}
	err := sync()
	metWALFsyncs.Inc()
	metWALFsyncSeconds.Observe(time.Since(start).Seconds())
	if err == nil {
		st.dirty = false
	}
	return err
}

// flushLoop is the FsyncInterval background flusher.
func (st *Store) flushLoop() {
	defer close(st.flushDone)
	t := time.NewTicker(fsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			st.mu.Lock()
			if st.dirty && !st.closed {
				if err := st.syncLocked(); err != nil {
					st.logger.Error("store: background fsync failed", "err", err)
				}
			}
			st.mu.Unlock()
		case <-st.flushStop:
			return
		}
	}
}

// Snapshot durably freezes the given schema and evolution log at the
// current WAL position, then rotates and compacts the log: a fresh WAL
// file is started and older WAL files and snapshots are deleted. The
// trigger labels the snapshot metric ("auto", "admin", ...). A failed
// snapshot loses nothing — the WAL still holds every record — and the
// next automatic one is due SnapshotEvery records later.
func (st *Store) Snapshot(sch *core.Schema, log []evolution.LogEntry, trigger string) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, fmt.Errorf("store: closed")
	}
	start := time.Now()
	seq := st.seq
	st.snapTried = seq
	size, err := writeSnapshot(st.dir, sch, log, seq)
	if err != nil {
		return 0, fmt.Errorf("store: snapshot: %w", err)
	}
	rotate := time.Now()
	newPath := filepath.Join(st.dir, walName(seq+1))
	if newPath != st.walPath {
		f, err := createWAL(newPath)
		if err != nil {
			return 0, fmt.Errorf("store: rotating wal: %w", err)
		}
		if err := syncDir(st.dir); err != nil {
			f.Close()
			return 0, fmt.Errorf("store: %w", err)
		}
		st.wal.Close() // superseded; its records are inside the snapshot
		st.wal, st.walPath, st.walSize, st.dirty = f, newPath, int64(len(walMagic)), false
	}
	st.snapSeq, st.snapBytes = seq, size
	compact := time.Now()
	metSnapshotStageSeconds.With("rotate").Observe(compact.Sub(rotate).Seconds())
	st.compactLocked()
	metSnapshotStageSeconds.With("compact").Observe(time.Since(compact).Seconds())

	dur := time.Since(start)
	metSnapshots.With(trigger).Inc()
	metSnapshotSeconds.Observe(dur.Seconds())
	metSnapshotBytes.Set(size)
	metWALSinceSnapshot.Set(0)
	st.logger.Info("store snapshot taken", "seq", seq, "trigger", trigger, "bytes", size,
		"ms", float64(dur)/float64(time.Millisecond))
	return seq, nil
}

// compactLocked deletes WAL files other than the current one, snapshots
// older than the latest and stale snapshot temp files; the caller holds
// st.mu (or is inside Open, before the store is published). Deletion
// failures are logged, never fatal — stale files are re-collected next
// time.
func (st *Store) compactLocked() {
	names, seqs, err := listBySeq(st.dir, "wal-", ".log")
	if err == nil {
		for _, name := range names {
			if path := filepath.Join(st.dir, name); path != st.walPath {
				if err := os.Remove(path); err != nil {
					st.logger.Warn("store: compaction could not remove wal", "path", path, "err", err)
				}
			}
		}
	}
	names, seqs, err = listBySeq(st.dir, "snapshot-", snapshotExt)
	if err == nil {
		for i, name := range names {
			if seqs[i] < st.snapSeq {
				if err := os.Remove(filepath.Join(st.dir, name)); err != nil {
					st.logger.Warn("store: compaction could not remove snapshot", "name", name, "err", err)
				}
			}
		}
	}
	// A snapshot removes its own temp file when it fails and runs under
	// the same mutex as this, so one that exists was left by a crash.
	tmps, _ := filepath.Glob(filepath.Join(st.dir, "snapshot-*.tmp"))
	for _, path := range tmps {
		if err := os.Remove(path); err != nil {
			st.logger.Warn("store: compaction could not remove stale snapshot temp file", "path", path, "err", err)
		}
	}
	_ = syncDir(st.dir)
}

// LastSeq returns the sequence number of the last appended record.
func (st *Store) LastSeq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.seq
}

// SnapshotSeq returns the WAL sequence covered by the latest snapshot.
func (st *Store) SnapshotSeq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.snapSeq
}

// SnapshotBytes returns the size of the latest snapshot file, 0 before
// the first one.
func (st *Store) SnapshotBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.snapBytes
}

// RecoveryStats reports what Open did.
func (st *Store) RecoveryStats() RecoveryStats { return st.stats }

// Close flushes and closes the WAL. It never snapshots — a process
// killed without Close recovers identically, minus at most the
// unsynced tail permitted by the fsync policy.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	st.notifyLocked() // wake stream readers so they observe the close
	flushStop := st.flushStop
	st.mu.Unlock()
	if flushStop != nil {
		close(flushStop)
		<-st.flushDone
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var err error
	if st.opts.Fsync != FsyncOff {
		err = st.wal.Sync()
	}
	if cerr := st.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
