package store

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
)

// A Replica is the follower side of WAL-shipping replication: it
// bootstraps from the leader's latest snapshot (warm MVFT modes
// included), then applies the streamed WAL records through commit, the
// routine the leader served them with and crash recovery replays them
// with, so a follower's hot state is the leader's hot state. Each
// applied clone is handed to the publish callback, which swaps it into
// service (a server built WithReplica registers its own).
//
// The replica owns its reconnect loop: a dropped stream resumes from
// the last applied sequence with exponential backoff, and a 410 from
// the leader (the resume position was compacted into a snapshot)
// triggers a fresh bootstrap.

// errGone reports a 410 from the leader's stream endpoint.
var errGone = errors.New("store: replica: resume position compacted; re-bootstrap required")

// ReplicaOptions tunes a Replica; the zero value works.
type ReplicaOptions struct {
	// Client performs the leader HTTP requests; nil means a dedicated
	// client with no overall timeout (streams are long-lived).
	Client *http.Client
	// Logger receives bootstrap, apply and reconnect logs; nil means
	// slog.Default().
	Logger *slog.Logger
	// StaleAfter bounds how long the stream may go without any frame
	// (records or heartbeats) before the follower declares the
	// connection dead and reconnects; 0 means 10s.
	StaleAfter time.Duration
	// MinBackoff/MaxBackoff bound the reconnect backoff; 0 means
	// 100ms / 3s.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// BeforeApply, when set, is called with each record's sequence
	// number before it is applied — an extension point for tests
	// (deterministic lag) and throttling.
	BeforeApply func(seq uint64)
}

// ReplicaStatus is a point-in-time view of replication progress,
// served on the follower's /readyz.
type ReplicaStatus struct {
	Leader     string `json:"leader"`
	Connected  bool   `json:"connected"`
	AppliedSeq uint64 `json:"appliedSeq"`
	LeaderSeq  uint64 `json:"leaderSeq"`
	// LagRecords is the seq delta: records the leader has committed
	// that this follower has not yet applied (as of last contact).
	LagRecords uint64 `json:"lagRecords"`
	// LagMs is the wall-clock lag: 0 when caught up, otherwise the
	// time since the follower last applied (or, before the first
	// apply, since it connected).
	LagMs      float64 `json:"lagMs"`
	Reconnects uint64  `json:"reconnects"`
	Bootstraps uint64  `json:"bootstraps"`
}

// Replica replicates a leader's WAL into a locally served schema.
type Replica struct {
	leader  string
	client  *http.Client
	logger  *slog.Logger
	opts    ReplicaOptions
	publish func(*core.Schema, *evolution.Applier, core.Delta, uint64)

	mu         sync.Mutex
	sch        *core.Schema
	ap         *evolution.Applier
	applied    uint64
	leaderSeq  uint64
	connected  bool
	lastFrame  time.Time
	lastApply  time.Time
	reconnects uint64
	bootstraps uint64
	appliedCh  chan struct{} // closed + replaced on every apply/bootstrap
}

// NewReplica creates a follower of the leader at the given base URL
// (e.g. "http://leader:8080"). Set the publish callback before Run.
func NewReplica(leader string, opts ReplicaOptions) *Replica {
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.StaleAfter <= 0 {
		opts.StaleAfter = 10 * time.Second
	}
	if opts.MinBackoff <= 0 {
		opts.MinBackoff = 100 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 3 * time.Second
	}
	return &Replica{
		leader:    strings.TrimRight(leader, "/"),
		client:    opts.Client,
		logger:    opts.Logger,
		opts:      opts,
		publish:   func(*core.Schema, *evolution.Applier, core.Delta, uint64) {},
		appliedCh: make(chan struct{}),
	}
}

// SetPublish installs the callback that swaps each applied clone into
// service; server.WithReplica registers the server's own. The delta
// describes what the applied record changed — a bootstrap publishes a
// conservative everything-changed delta — so the publisher can retain
// caches the change provably cannot affect, and the sequence is the
// last WAL record the clone contains. It must be set before Run.
func (r *Replica) SetPublish(fn func(*core.Schema, *evolution.Applier, core.Delta, uint64)) {
	if fn != nil {
		r.publish = fn
	}
}

// Leader returns the leader's base URL.
func (r *Replica) Leader() string { return r.leader }

// Applied returns the last applied WAL sequence.
func (r *Replica) Applied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// Status reports replication progress.
func (r *Replica) Status() ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := ReplicaStatus{
		Leader:     r.leader,
		Connected:  r.connected,
		AppliedSeq: r.applied,
		LeaderSeq:  r.leaderSeq,
		Reconnects: r.reconnects,
		Bootstraps: r.bootstraps,
	}
	if r.leaderSeq > r.applied {
		s.LagRecords = r.leaderSeq - r.applied
		since := r.lastApply
		if since.IsZero() {
			since = r.lastFrame
		}
		if !since.IsZero() {
			s.LagMs = float64(time.Since(since)) / float64(time.Millisecond)
		}
	}
	return s
}

// WaitForSeq blocks until the replica has applied at least seq or the
// context ends. (A server's ?minWalSeq= barrier waits for the sequence
// it serves instead, which its publish records.)
func (r *Replica) WaitForSeq(ctx context.Context, seq uint64) error {
	for {
		r.mu.Lock()
		applied, ch := r.applied, r.appliedCh
		r.mu.Unlock()
		if applied >= seq {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("wal seq %d not yet replicated (applied %d): %w", seq, applied, ctx.Err())
		case <-ch:
		}
	}
}

// Run bootstraps and then follows the leader's WAL until ctx ends,
// reconnecting with backoff on any stream failure. It returns only
// the context's error.
func (r *Replica) Run(ctx context.Context) error {
	backoff := r.opts.MinBackoff
	needBootstrap := true
	for ctx.Err() == nil {
		var err error
		if needBootstrap {
			if err = r.bootstrap(ctx); err == nil {
				needBootstrap = false
			}
		}
		if err == nil {
			connectedAt := time.Now()
			err = r.streamOnce(ctx)
			if errors.Is(err, errGone) {
				needBootstrap = true
				continue
			}
			if time.Since(connectedAt) > 10*time.Second {
				backoff = r.opts.MinBackoff // the last stream was healthy
			}
		}
		if ctx.Err() != nil {
			break
		}
		r.mu.Lock()
		r.connected = false
		r.reconnects++
		r.mu.Unlock()
		metReplReconnects.Inc()
		r.logger.Warn("replica: stream interrupted; backing off",
			"leader", r.leader, "applied", r.Applied(), "backoff", backoff, "err", err)
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > r.opts.MaxBackoff {
			backoff = r.opts.MaxBackoff
		}
	}
	return ctx.Err()
}

// bootstrap fetches the leader's latest snapshot and installs it:
// schema, evolution log and the covered sequence. It carries no mode:
// every mode builds on the follower's first query in it.
func (r *Replica) bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.leader+"/wal/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("replica: bootstrap: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: bootstrap: leader returned %s", resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("replica: bootstrap: %w", err)
	}
	sch, ap, seq, err := loadSnapshot(data, r.leader+"/wal/snapshot")
	if err != nil {
		return fmt.Errorf("replica: bootstrap: %w", err)
	}

	r.publish(sch, ap, core.Delta{Reroutes: true}, seq)
	r.mu.Lock()
	r.sch, r.ap = sch, ap
	r.applied = seq
	if seq > r.leaderSeq {
		r.leaderSeq = seq
	}
	r.lastApply = time.Now()
	r.bootstraps++
	close(r.appliedCh)
	r.appliedCh = make(chan struct{})
	r.mu.Unlock()
	metReplLag.Set(int64(r.Status().LagRecords))
	r.logger.Info("replica: bootstrapped from leader snapshot",
		"leader", r.leader, "seq", seq)
	return nil
}

// streamOnce holds one stream connection open, applying records as
// they arrive, until the connection drops, goes stale, or ctx ends.
func (r *Replica) streamOnce(ctx context.Context) error {
	from := r.Applied() + 1
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet,
		fmt.Sprintf("%s/wal/stream?from=%d", r.leader, from), nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return errGone
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("replica: stream: leader returned %s", resp.Status)
	}
	if v := resp.Header.Get(WALSeqHeader); v != "" {
		if seq, err := strconv.ParseUint(v, 10, 64); err == nil {
			r.noteLeaderSeq(seq)
		}
	}
	r.mu.Lock()
	r.connected = true
	r.lastFrame = time.Now()
	r.mu.Unlock()

	// Watchdog: the leader heartbeats an idle stream, so a silent
	// connection means the leader (or the path to it) is gone.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(r.opts.StaleAfter / 2)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-sctx.Done():
				return
			case <-t.C:
				r.mu.Lock()
				stale := time.Since(r.lastFrame) > r.opts.StaleAfter
				r.mu.Unlock()
				if stale {
					r.logger.Warn("replica: stream stale, reconnecting", "leader", r.leader)
					cancel()
					return
				}
			}
		}
	}()

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	if err := readMagic(br); err != nil {
		return fmt.Errorf("replica: stream: %w", err)
	}
	for {
		_, rec, err := readFrame(br)
		if err != nil {
			return fmt.Errorf("replica: stream: %w", err)
		}
		r.mu.Lock()
		r.lastFrame = time.Now()
		r.mu.Unlock()
		r.noteLeaderSeq(rec.Seq)
		if rec.Type == RecordHeartbeat {
			metReplLag.Set(int64(r.Status().LagRecords))
			continue
		}
		if r.opts.BeforeApply != nil {
			r.opts.BeforeApply(rec.Seq)
		}
		if err := r.apply(rec); err != nil {
			return err
		}
	}
}

// apply commits one streamed record and publishes the evolved clone. Records at or before the applied
// frontier (reconnect overlap) are skipped; a gap is a protocol error.
func (r *Replica) apply(rec walRecord) error {
	r.mu.Lock()
	sch, ap, applied := r.sch, r.ap, r.applied
	r.mu.Unlock()
	if rec.Seq <= applied {
		return nil
	}
	if rec.Seq != applied+1 {
		return fmt.Errorf("replica: wal gap: applied %d, received %d", applied, rec.Seq)
	}
	clone, ap2, delta, err := applyRecord(sch, ap, rec)
	if err != nil {
		return fmt.Errorf("replica: applying record %d: %w", rec.Seq, err)
	}
	r.publish(clone, ap2, delta, rec.Seq)
	r.mu.Lock()
	r.sch, r.ap = clone, ap2
	r.applied = rec.Seq
	if rec.Seq > r.leaderSeq {
		r.leaderSeq = rec.Seq
	}
	r.lastApply = time.Now()
	close(r.appliedCh)
	r.appliedCh = make(chan struct{})
	r.mu.Unlock()
	metReplApplied.Inc()
	metReplLag.Set(int64(r.Status().LagRecords))
	return nil
}

func (r *Replica) noteLeaderSeq(seq uint64) {
	r.mu.Lock()
	if seq > r.leaderSeq {
		r.leaderSeq = seq
	}
	r.mu.Unlock()
}
