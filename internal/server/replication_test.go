package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mvolap/internal/casestudy"
	"mvolap/internal/store"
)

// These tests drive the replication acceptance scenario over real
// HTTP: a leader with a store, followers that bootstrap from its
// snapshot and apply its streamed WAL, evolution and fact batches on
// the leader, a follower killed and restarted mid-stream, and the
// requirement that every converged follower answers /query and
// /schema byte-identically to the leader.

// startLeader opens a store-backed leader over httptest. Stop runs
// before Close so an active WAL stream cannot hang the cleanup.
func startLeader(t *testing.T, dir string) (*httptest.Server, *Server, *store.Store) {
	t.Helper()
	seed, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	st, sch, applier, err := store.Open(dir, seed, store.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	s := New(nil, WithLogger(quietLogger()), WithEvolution())
	s.Install(sch, applier, st)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Stop()
		ts.Close()
	})
	return ts, s, st
}

// startFollower runs a read-only follower of the leader at leaderURL:
// a Replica pumping applied clones into a storeless server, exactly
// as cmd/mvolapd wires -replicate-from. The returned cancel kills the
// replication loop — the mid-stream "crash" the tests use. It returns
// only once the follower answers /readyz with 200, i.e. has installed
// its bootstrap snapshot: a caller whose barrier is trivially met
// (leader at seq 0) would otherwise race the install and read 503.
func startFollower(t *testing.T, leaderURL string, opts store.ReplicaOptions, serverOpts ...Option) (*httptest.Server, *store.Replica, context.CancelFunc) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = quietLogger()
	}
	if opts.MinBackoff == 0 {
		opts.MinBackoff = 10 * time.Millisecond
	}
	if opts.MaxBackoff == 0 {
		opts.MaxBackoff = 100 * time.Millisecond
	}
	rep := store.NewReplica(leaderURL, opts)
	s := New(nil, append([]Option{WithLogger(quietLogger()), WithReplica(rep)}, serverOpts...)...)
	ctx, cancel := context.WithCancel(context.Background())
	go rep.Run(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		cancel()
		s.Stop()
		ts.Close()
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get(t, ts, "/readyz")
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower of %s never became ready: %d %s", leaderURL, code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ts, rep, cancel
}

// waitApplied blocks until the replica has applied seq or the
// deadline passes.
func waitApplied(t *testing.T, rep *store.Replica, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rep.Applied() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d (status %+v)", rep.Applied(), seq, rep.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readyzStatus fetches and decodes a follower's /readyz body.
func readyzStatus(t *testing.T, srv *httptest.Server) (int, map[string]any) {
	t.Helper()
	code, body := get(t, srv, "/readyz")
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("readyz body %q: %v", body, err)
	}
	return code, m
}

// TestReplicationConvergenceAndRestart is the acceptance scenario:
// leader plus two followers, evolution and fact batches on the
// leader, one follower killed mid-stream and restarted from scratch,
// both converge and answer byte-identically to the leader.
func TestReplicationConvergenceAndRestart(t *testing.T) {
	leaderTS, _, st := startLeader(t, t.TempDir())
	mutate(t, leaderTS) // 3 evolutions + 1 fact batch: seqs 1..4

	f1TS, rep1, kill1 := startFollower(t, leaderTS.URL, store.ReplicaOptions{})
	f2TS, rep2, _ := startFollower(t, leaderTS.URL, store.ReplicaOptions{})
	waitApplied(t, rep1, 4)
	waitApplied(t, rep2, 4)

	want := captureState(t, leaderTS)
	assertSameState(t, f1TS, want)
	assertSameState(t, f2TS, want)

	// Kill follower 1 mid-stream; the leader keeps writing without it.
	kill1()
	code, body := post(t, leaderTS, "/evolve", "EXCLUDE Org Dpt.New_id AT 01/2006\n")
	if code != http.StatusOK {
		t.Fatalf("evolve while follower down = %d: %s", code, body)
	}
	code, body = post(t, leaderTS, "/facts",
		`[{"coords":["Dpt.Paul_id"],"time":"2005","values":[25]}]`)
	if code != http.StatusOK {
		t.Fatalf("facts while follower down = %d: %s", code, body)
	}
	if st.LastSeq() != 6 {
		t.Fatalf("leader seq = %d, want 6", st.LastSeq())
	}

	// Restart follower 1 from scratch: it re-bootstraps and catches up.
	f1bTS, rep1b, _ := startFollower(t, leaderTS.URL, store.ReplicaOptions{})
	waitApplied(t, rep1b, 6)
	waitApplied(t, rep2, 6)

	want = captureState(t, leaderTS)
	assertSameState(t, f1bTS, want)
	assertSameState(t, f2TS, want)

	// A converged follower's readyz reports its role and progress.
	code, m := readyzStatus(t, f2TS)
	if code != http.StatusOK || m["role"] != "follower" {
		t.Fatalf("follower readyz = %d %v", code, m)
	}
	repl, _ := m["replication"].(map[string]any)
	if repl == nil || repl["appliedSeq"].(float64) != 6 {
		t.Fatalf("follower replication status = %v", repl)
	}
}

// TestFollowerRejectsWrites: every mutating endpoint on a follower
// answers 403 and points the client at the leader.
func TestFollowerRejectsWrites(t *testing.T) {
	leaderTS, _, _ := startLeader(t, t.TempDir())
	fTS, rep, _ := startFollower(t, leaderTS.URL, store.ReplicaOptions{})

	// Wait out the bootstrap; the 403 must still name the leader after.
	deadline := time.Now().Add(10 * time.Second)
	for rep.Status().Bootstraps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never bootstrapped")
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, tc := range []struct{ path, body string }{
		{"/evolve", "EXCLUDE Org Dpt.Brian_id AT 01/2004\n"},
		{"/facts", `[{"coords":["Dpt.Bill_id"],"time":"2004","values":[70]}]`},
		{"/admin/snapshot", ""},
	} {
		code, body := post(t, fTS, tc.path, tc.body)
		if code != http.StatusForbidden {
			t.Errorf("follower POST %s = %d: %s", tc.path, code, body)
		}
		if !strings.Contains(string(body), leaderTS.URL) {
			t.Errorf("follower POST %s does not name the leader: %s", tc.path, body)
		}
	}
}

// TestFollowerLagAndMinWalSeq: a follower whose apply loop is gated
// reports its lag on /readyz, blocks ?minWalSeq= queries until the
// sequence applies, and times out (504) when it cannot.
func TestFollowerLagAndMinWalSeq(t *testing.T) {
	leaderTS, _, st := startLeader(t, t.TempDir())
	mutate(t, leaderTS) // seqs 1..4

	gate := make(chan struct{})
	opts := store.ReplicaOptions{
		BeforeApply: func(seq uint64) {
			if seq >= 5 {
				<-gate
			}
		},
	}
	fTS, rep, _ := startFollower(t, leaderTS.URL, opts, WithQueryTimeout(500*time.Millisecond))
	waitApplied(t, rep, 4) // bootstrap snapshot covers everything so far

	// Leader commits seq 5; the gate holds it out of the follower.
	code, body := post(t, leaderTS, "/evolve", "EXCLUDE Org Dpt.New_id AT 01/2006\n")
	if code != http.StatusOK {
		t.Fatalf("evolve = %d: %s", code, body)
	}
	if st.LastSeq() != 5 {
		t.Fatalf("leader seq = %d", st.LastSeq())
	}

	// The lagging follower stays ready and reports the seq delta.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, m := readyzStatus(t, fTS)
		repl, _ := m["replication"].(map[string]any)
		if code == http.StatusOK && repl != nil && repl["lagRecords"].(float64) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reported lag: %d %v", code, m)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Read-your-writes: pinned to seq 5, the query cannot answer from
	// the gated follower and fails bounded.
	q := "/query?minWalSeq=5&q=" + urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm")
	if code, body := get(t, fTS, q); code != http.StatusGatewayTimeout {
		t.Fatalf("gated minWalSeq query = %d: %s", code, body)
	}

	// Release the gate: the same query now waits for the apply and
	// succeeds.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if code, body := get(t, fTS, q); code != http.StatusOK {
			t.Errorf("post-release minWalSeq query = %d: %s", code, body)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(gate)
	<-done
	waitApplied(t, rep, 5)

	// On the leader the barrier is immediate: committed passes, the
	// future fails bounded, garbage is a client error.
	if code, _ := get(t, leaderTS, "/query?minWalSeq=5&q="+urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm")); code != http.StatusOK {
		t.Errorf("leader minWalSeq=5 = %d", code)
	}
	if code, _ := get(t, leaderTS, "/query?minWalSeq=999&q="+urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm")); code != http.StatusGatewayTimeout {
		t.Errorf("leader minWalSeq=999 = %d", code)
	}
	if code, _ := get(t, leaderTS, "/query?minWalSeq=bogus&q="+urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm")); code != http.StatusBadRequest {
		t.Errorf("leader minWalSeq=bogus = %d", code)
	}
}

// TestWALEndpoints covers the leader-side protocol edges: compacted
// positions answer 410 with the snapshot sequence, bad parameters are
// client errors, storeless servers refuse, and the snapshot endpoint
// reports the covered sequence.
func TestWALEndpoints(t *testing.T) {
	leaderTS, _, st := startLeader(t, t.TempDir())
	mutate(t, leaderTS) // seqs 1..4
	if code, body := post(t, leaderTS, "/admin/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot = %d: %s", code, body)
	}

	// Bootstrap payload: the snapshot bytes plus the covered sequence.
	resp, err := http.Get(leaderTS.URL + "/wal/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(store.WALSeqHeader) != "4" {
		t.Fatalf("wal/snapshot = %d, seq header %q", resp.StatusCode, resp.Header.Get(store.WALSeqHeader))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("wal/snapshot Content-Type = %q", ct)
	}

	// Compacted resume position: 410 plus where to bootstrap from.
	code, body := get(t, leaderTS, "/wal/stream?from=1")
	if code != http.StatusGone {
		t.Fatalf("compacted stream = %d: %s", code, body)
	}
	var gone struct {
		SnapshotSeq uint64 `json:"snapshotSeq"`
	}
	if err := json.Unmarshal(body, &gone); err != nil || gone.SnapshotSeq != 4 {
		t.Fatalf("gone body = %s (%v)", body, err)
	}
	if st.SnapshotSeq() != 4 {
		t.Fatalf("snapshotSeq = %d", st.SnapshotSeq())
	}

	if code, _ := get(t, leaderTS, "/wal/stream?from=zero"); code != http.StatusBadRequest {
		t.Errorf("bad from = %d", code)
	}

	// A server without a store is not a leader.
	storeless := testServer(t)
	if code, _ := get(t, storeless, "/wal/stream?from=1"); code != http.StatusForbidden {
		t.Errorf("storeless stream = %d", code)
	}
	if code, _ := get(t, storeless, "/wal/snapshot"); code != http.StatusForbidden {
		t.Errorf("storeless snapshot = %d", code)
	}
}

// TestStreamEndsOnStop: Server.Stop ends a live WAL stream so a
// graceful daemon shutdown is not held open by followers.
func TestStreamEndsOnStop(t *testing.T) {
	leaderTS, s, _ := startLeader(t, t.TempDir())
	mutate(t, leaderTS)

	resp, err := http.Get(leaderTS.URL + "/wal/stream?from=5") // live tail: nothing to send yet
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	magic := make([]byte, len(store.WALMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != store.WALMagic {
		t.Fatalf("magic = %q, %v", magic, err)
	}

	s.Stop()
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := br.Read(buf); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after Stop")
	}
}
