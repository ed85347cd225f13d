// Replication endpoints and follower routing. The clone-swap model
// makes every query read-only over an immutable snapshot, so read
// throughput scales by shipping the write-ahead log: a leader streams
// its committed WAL frames (MVOWAL01 framing and CRCs intact) to
// follower processes that rebuild state exactly like a restart —
// snapshot, then the WAL tail through the one commit routine — and
// serve /query and /schema, each mode building on first use. See
// docs/replication.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/obs"
	"mvolap/internal/store"
)

// replHeartbeatEvery is how often an idle stream emits a heartbeat
// frame carrying the leader's committed sequence — the follower's
// liveness signal and lag reference.
const replHeartbeatEvery = 1 * time.Second

// replStreamBatchBytes bounds one write on the stream; whole frames
// only, so a batch can exceed it by one frame.
const replStreamBatchBytes = 256 << 10

var (
	metReplStreams = obs.Default().Gauge(
		"mvolap_repl_streams_active",
		"Replication stream connections currently open (leader side).")
	metReplStreamBytes = obs.Default().Counter(
		"mvolap_repl_stream_bytes_total",
		"WAL frame bytes shipped to followers (leader side).")
)

// WithReplica marks the server as a read-only follower replicating
// from rep's leader: every generation rep bootstraps or applies goes
// into service through the server's publish, mutating endpoints answer
// 403 with the leader's address, and /readyz reports replication lag.
func WithReplica(rep *store.Replica) Option {
	return func(s *Server) {
		s.replica = rep
		rep.SetPublish(func(sch *core.Schema, ap *evolution.Applier, delta core.Delta, seq uint64) {
			s.writeMu.Lock()
			defer s.writeMu.Unlock()
			s.publish(sch, ap, delta, seq)
		})
	}
}

// forbidOnReplica answers 403 with the leader's address on a
// follower's mutating endpoints, reporting true when it did.
func (s *Server) forbidOnReplica(w http.ResponseWriter) bool {
	if s.replica == nil {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusForbidden)
	json.NewEncoder(w).Encode(map[string]string{
		"error":  "read-only replica: this follower does not accept writes",
		"leader": s.replica.Leader(),
	})
	return true
}

// awaitMinSeq implements read-your-writes: a request carrying
// ?minWalSeq=<seq> (the walSeq a leader write returned) does not run
// until this process serves a generation containing that sequence. It
// waits, bounded by ctx, for publish to record it — on a follower for
// replication to catch up, on the leader for a logged write to be
// swapped in. A sequence the leader never logged fails at once.
func (s *Server) awaitMinSeq(ctx context.Context, r *http.Request) (int, error) {
	v := r.URL.Query().Get("minWalSeq")
	if v == "" {
		return 0, nil
	}
	seq, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("bad minWalSeq %q: %w", v, err)
	}
	for {
		s.mu.RLock()
		served, published, st := s.servedSeq, s.served, s.store
		s.mu.RUnlock()
		if served >= seq {
			return 0, nil
		}
		if s.replica == nil {
			if st == nil {
				return 0, nil // no durability: walSeq has no meaning here
			}
			if last := st.LastSeq(); last < seq {
				return http.StatusGatewayTimeout, fmt.Errorf("wal seq %d not yet committed (last %d)", seq, last)
			}
		}
		select {
		case <-ctx.Done():
			return http.StatusGatewayTimeout, fmt.Errorf("wal seq %d not yet served (served %d): %w", seq, served, ctx.Err())
		case <-published:
		}
	}
}

// handleWALSnapshot serves the leader's latest snapshot — the
// follower bootstrap payload. A leader that has never snapshotted
// takes one on demand, so bootstrap always succeeds and the stream's
// compaction horizon aligns with what the follower just loaded.
func (s *Server) handleWALSnapshot(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	st := s.store
	s.mu.RUnlock()
	if st == nil {
		jsonError(w, http.StatusForbidden, fmt.Errorf("not a leader: no store configured (start with -data-dir)"))
		return
	}
	if s.notReady(w) {
		return
	}
	data, seq, err := st.LatestSnapshotBytes()
	if err != nil {
		s.writeMu.Lock()
		_, serr := st.Snapshot(s.schema, s.applier.Log(), "bootstrap")
		s.writeMu.Unlock()
		if serr != nil {
			jsonError(w, http.StatusInternalServerError, fmt.Errorf("bootstrap snapshot: %w", serr))
			return
		}
		if data, seq, err = st.LatestSnapshotBytes(); err != nil {
			jsonError(w, http.StatusInternalServerError, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(store.WALSeqHeader, strconv.FormatUint(seq, 10))
	w.Write(data)
}

// handleWALStream streams committed WAL frames from ?from=<seq>
// onward: the MVOWAL01 magic once, then length-prefixed CRC-checked
// frames exactly as they sit in the log, heartbeats when idle. The
// response never ends on its own — it holds until the client
// disconnects, the server shuts down, or the resume position turns
// out to be compacted (in which case the follower re-bootstraps).
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	st := s.store
	s.mu.RUnlock()
	if st == nil {
		jsonError(w, http.StatusForbidden, fmt.Errorf("not a leader: no store configured (start with -data-dir)"))
		return
	}
	if s.notReady(w) {
		return
	}
	from := uint64(1)
	if v := r.URL.Query().Get("from"); v != "" {
		seq, err := strconv.ParseUint(v, 10, 64)
		if err != nil || seq == 0 {
			jsonError(w, http.StatusBadRequest, fmt.Errorf("bad from %q", v))
			return
		}
		from = seq
	}
	if snap := st.SnapshotSeq(); from <= snap {
		// Those records live only inside the snapshot now: the follower
		// must bootstrap from /wal/snapshot before streaming.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(store.WALSeqHeader, strconv.FormatUint(st.LastSeq(), 10))
		w.WriteHeader(http.StatusGone)
		json.NewEncoder(w).Encode(map[string]any{
			"error":       "requested WAL records compacted into a snapshot; bootstrap from /wal/snapshot",
			"snapshotSeq": snap,
		})
		return
	}

	// The stream outlives any server write timeout; the follower's
	// staleness watchdog is the liveness bound instead.
	rc := http.NewResponseController(w)
	rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(store.WALSeqHeader, strconv.FormatUint(st.LastSeq(), 10))
	w.WriteHeader(http.StatusOK)
	if _, err := io.WriteString(w, store.WALMagic); err != nil {
		return
	}
	rc.Flush()

	// End the stream when the daemon begins graceful shutdown, not
	// just when the client goes away — followers reconnect on their own.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.closing:
			cancel()
		case <-ctx.Done():
		}
	}()

	metReplStreams.Add(1)
	defer metReplStreams.Add(-1)
	sr := st.StreamFrom(from)
	defer sr.Close()
	for {
		frames, last, err := sr.Next(ctx, replStreamBatchBytes, replHeartbeatEvery)
		switch {
		case err == nil:
			if _, werr := w.Write(frames); werr != nil {
				return
			}
			metReplStreamBytes.Add(int64(len(frames)))
			rc.Flush()
		case errors.Is(err, store.ErrStreamIdle):
			hb, herr := store.HeartbeatFrame(last)
			if herr != nil {
				return
			}
			if _, werr := w.Write(hb); werr != nil {
				return
			}
			metReplStreamBytes.Add(int64(len(hb)))
			rc.Flush()
		default:
			// Client disconnect, shutdown, mid-stream compaction, or a
			// store error: close; the follower re-negotiates on reconnect.
			if !errors.Is(err, context.Canceled) {
				s.logger.Warn("wal stream ended", "from", from, "lastSent", last, "err", err)
			}
			return
		}
	}
}
