package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// WAL streaming: the leader side of replication. A StreamReader
// follows the committed frontier of the write-ahead log and hands out
// raw MVOWAL01 frames — the same bytes, CRCs included, that recovery
// would replay — so a follower applies exactly what the leader wrote.
//
// The reader never sees an uncommitted byte: Store.append advances
// walSize and seq only after the record (and, under FsyncAlways, its
// fsync) succeeded, so a frame rolled back by a failed append is never
// shipped. Rotation is transparent — sequence numbers are contiguous
// across WAL files, and a file deleted by compaction under an open
// descriptor still reads to its final size.

// WALSeqHeader carries a WAL sequence number on the replication
// endpoints: the leader's last committed sequence on GET /wal/stream,
// and the covered sequence on GET /wal/snapshot.
const WALSeqHeader = "X-Mvolap-Wal-Seq"

// WALMagic is the stream preamble, identical to the WAL file header:
// a replication stream is a WAL file shipped over HTTP.
const WALMagic = walMagic

// ErrCompacted reports that the requested WAL position has been
// compacted into a snapshot; the follower must re-bootstrap from
// GET /wal/snapshot.
var ErrCompacted = errors.New("store: requested WAL records compacted into a snapshot")

// ErrStreamIdle reports that no record arrived within the idle window
// passed to Next; the caller typically emits a heartbeat frame.
var ErrStreamIdle = errors.New("store: wal stream idle")

// walStatusView is a point-in-time view of the WAL for stream readers.
type walStatusView struct {
	path      string
	committed int64  // committed byte size of path
	lastSeq   uint64 // last committed record
	notify    <-chan struct{}
}

func (st *Store) walStatus() (walStatusView, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return walStatusView{}, false
	}
	return walStatusView{path: st.walPath, committed: st.walSize, lastSeq: st.seq, notify: st.appendCh}, true
}

// HeartbeatFrame encodes a RecordHeartbeat frame carrying the leader's
// last committed sequence, in the stream's MVOWAL01 framing.
func HeartbeatFrame(seq uint64) ([]byte, error) {
	return encodeRecord(walRecord{Seq: seq, Type: RecordHeartbeat})
}

// StreamReader follows the WAL from a starting sequence, delivering
// committed frames in order. It is not safe for concurrent use; each
// replication stream owns one.
type StreamReader struct {
	st     *Store
	next   uint64 // next sequence to deliver
	f      *os.File
	path   string
	offset int64
}

// StreamFrom returns a reader positioned at the given sequence. The
// first Next reports ErrCompacted if that position now lives only
// inside a snapshot.
func (st *Store) StreamFrom(from uint64) *StreamReader {
	return &StreamReader{st: st, next: from}
}

// Close releases the reader's file handle.
func (r *StreamReader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// Next returns the raw framed bytes of one or more committed records
// starting at the reader's position (whole frames, up to roughly
// maxBytes), with the sequence of the last record included. When the
// reader is caught up it blocks until a record commits, the context
// ends, or idle elapses — the latter returns the current committed
// sequence with ErrStreamIdle so the caller can emit a heartbeat.
func (r *StreamReader) Next(ctx context.Context, maxBytes int, idle time.Duration) ([]byte, uint64, error) {
	var out []byte
	var last uint64
	for {
		status, ok := r.st.walStatus()
		if !ok {
			return nil, 0, errors.New("store: closed")
		}
		if r.next > status.lastSeq {
			if len(out) > 0 {
				return out, last, nil
			}
			timer := time.NewTimer(idle)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, 0, ctx.Err()
			case <-status.notify:
				timer.Stop()
				continue
			case <-timer.C:
				return nil, status.lastSeq, ErrStreamIdle
			}
		}
		if r.f == nil {
			if err := r.open(); err != nil {
				return nil, 0, err
			}
		}
		// A rotated (non-current) file is complete: read it to its final
		// size. The current file is bounded by the committed frontier.
		limit := status.committed
		if r.path != status.path {
			info, err := r.f.Stat()
			if err != nil {
				return nil, 0, err
			}
			limit = info.Size()
		}
		if r.offset >= limit {
			if r.path != status.path {
				// Drained a rotated file; the next sequence lives in a
				// newer one (sequences are contiguous across rotation).
				r.Close()
				continue
			}
			// Committed frontier already consumed under this status view;
			// re-fetch (a commit may have landed since).
			continue
		}
		// A frame crossing the frontier reads short: the section ends there.
		frame, rec, err := readFrame(io.NewSectionReader(r.f, r.offset, limit-r.offset))
		if err != nil {
			return nil, 0, fmt.Errorf("store: %s: frame at %d: %w", r.path, r.offset, err)
		}
		r.offset += int64(len(frame))
		if rec.Seq < r.next {
			continue // skipping the already-delivered prefix of this file
		}
		if rec.Seq != r.next {
			return nil, 0, fmt.Errorf("store: wal stream: expected seq %d, found %d in %s", r.next, rec.Seq, r.path)
		}
		out = append(out, frame...)
		last, r.next = rec.Seq, rec.Seq+1
		if len(out) >= maxBytes {
			return out, last, nil
		}
	}
}

// open positions the reader on the WAL file containing r.next: the
// file with the greatest base sequence not after it. A position older
// than every on-disk file has been compacted into a snapshot.
func (r *StreamReader) open() error {
	names, seqs, err := listBySeq(r.st.dir, "wal-", ".log")
	if err != nil {
		return err
	}
	idx := -1
	for i, base := range seqs {
		if base <= r.next {
			idx = i
		}
	}
	if idx < 0 {
		return ErrCompacted
	}
	path := filepath.Join(r.st.dir, names[idx])
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ErrCompacted // compacted between the listing and the open
		}
		return err
	}
	if err := readMagic(f); err != nil {
		f.Close()
		return fmt.Errorf("store: %s: %w", path, err)
	}
	r.f, r.path, r.offset = f, path, int64(len(walMagic))
	return nil
}

// LatestSnapshotBytes returns the raw bytes of the newest readable
// snapshot and the WAL sequence it covers — the follower bootstrap
// payload. It checks what makes a container readable (magic, framing,
// end marker, the CRC of every section but the warm ones) and decodes
// only the meta section.
func (st *Store) LatestSnapshotBytes() ([]byte, uint64, error) {
	names, _, err := listBySeq(st.dir, "snapshot-", snapshotExt)
	if err != nil {
		return nil, 0, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(st.dir, names[i]))
		if err != nil {
			continue
		}
		if c, err := openSnapshot(data); err == nil {
			return data, c.meta.WALSeq, nil
		}
	}
	return nil, 0, fmt.Errorf("store: no readable snapshot in %s", st.dir)
}
