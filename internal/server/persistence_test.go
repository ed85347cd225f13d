package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/store"
)

// These tests drive the acceptance scenario of the persistence
// subsystem over HTTP: apply evolution batches and a fact append
// against a server with a -data-dir store, kill it (including with a
// deliberately truncated final WAL record), restart, and require
// /query and /schema to answer byte-identically to the pre-crash
// server.

// openServer opens (or recovers) a store in dir and returns a ready
// httptest server over it plus the store. The store is deliberately
// NOT closed on cleanup — abandoning it is how the tests simulate
// SIGKILL; recovery must not depend on a graceful close.
func openServer(t *testing.T, dir string, opts store.Options) (*httptest.Server, *store.Store) {
	t.Helper()
	seed, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	opts.Logger = quietLogger()
	st, sch, applier, err := store.Open(dir, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(nil, WithLogger(quietLogger()), WithEvolution())
	s.Install(sch, applier, st)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, st
}

func post(t *testing.T, srv *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// The case-study queries the crash tests require byte-identical
// answers for: the Table 9 V2 presentation and a tcm rollup.
var persistenceQueries = []string{
	"/query?q=" + urlEncode("SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003 MODE V2"),
	"/query?q=" + urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm"),
	"/schema",
}

// captureState fetches every persistence query and returns the raw
// response bodies.
func captureState(t *testing.T, srv *httptest.Server) [][]byte {
	t.Helper()
	var out [][]byte
	for _, q := range persistenceQueries {
		code, body := get(t, srv, q)
		if code != http.StatusOK {
			t.Fatalf("%s = %d: %s", q, code, body)
		}
		out = append(out, body)
	}
	return out
}

func assertSameState(t *testing.T, srv *httptest.Server, want [][]byte) {
	t.Helper()
	for i, q := range persistenceQueries {
		code, body := get(t, srv, q)
		if code != http.StatusOK {
			t.Fatalf("%s = %d: %s", q, code, body)
		}
		if string(body) != string(want[i]) {
			t.Errorf("%s differs after recovery:\n%s\nwant:\n%s", q, body, want[i])
		}
	}
}

// mutate drives three evolution batches and a fact append through the
// HTTP mutation endpoints, asserting WAL sequence numbers 1..4.
func mutate(t *testing.T, srv *httptest.Server) {
	t.Helper()
	scripts := []string{
		"EXCLUDE Org Dpt.Brian_id AT 01/2004\n",
		"INSERT Org Dpt.New_id Dpt.New LEVEL Department AT 01/2005 PARENTS Sales_id\n",
		"RECLASSIFY Org Dpt.Smith_id AT 01/2005 FROM R&D_id TO Sales_id\n",
	}
	for i, script := range scripts {
		code, body := post(t, srv, "/evolve", script)
		if code != http.StatusOK {
			t.Fatalf("evolve %d = %d: %s", i, code, body)
		}
		var resp struct {
			WALSeq uint64 `json:"walSeq"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || resp.WALSeq != uint64(i+1) {
			t.Fatalf("evolve %d walSeq = %+v, %v", i, resp, err)
		}
	}
	code, body := post(t, srv, "/facts",
		`[{"coords":["Dpt.Bill_id"],"time":"2004","values":[70]},
		  {"coords":["Dpt.Paul_id"],"time":"2004","values":[30]}]`)
	if code != http.StatusOK {
		t.Fatalf("facts = %d: %s", code, body)
	}
	var resp struct {
		Appended int    `json:"appended"`
		Facts    int    `json:"facts"`
		WALSeq   uint64 `json:"walSeq"`
	}
	if err := json.Unmarshal(body, &resp); err != nil ||
		resp.Appended != 2 || resp.Facts != 12 || resp.WALSeq != 4 {
		t.Fatalf("facts response = %+v, %v: %s", resp, err, body)
	}
}

// TestCrashRecoveryHTTPCleanKill: mutate, SIGKILL (abandon the store),
// restart, answers byte-identical.
func TestCrashRecoveryHTTPCleanKill(t *testing.T) {
	dir := t.TempDir()
	srv, _ := openServer(t, dir, store.Options{})
	mutate(t, srv)
	want := captureState(t, srv)
	srv.Close() // the store is abandoned un-closed: simulated SIGKILL

	srv2, st2 := openServer(t, dir, store.Options{})
	if got := st2.RecoveryStats(); got.Replayed != 4 || got.TornBytes != 0 {
		t.Errorf("recovery stats = %+v", got)
	}
	assertSameState(t, srv2, want)

	// Recovery is visible in /metrics.
	code, metrics := get(t, srv2, "/metrics")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	for _, name := range []string{
		"mvolap_store_recovery_seconds",
		"mvolap_store_recovery_replayed_total",
		"mvolap_store_wal_appends_total",
	} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestCrashRecoveryHTTPTornTail: the crash interrupts the final WAL
// append; the truncated record's batch is lost (it was never fully
// durable) and the server recovers the last complete state.
func TestCrashRecoveryHTTPTornTail(t *testing.T) {
	dir := t.TempDir()
	srv, _ := openServer(t, dir, store.Options{})
	mutate(t, srv)
	want := captureState(t, srv)

	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wal files = %v, %v", wals, err)
	}
	before, err := os.Stat(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	if code, body := post(t, srv, "/evolve", "EXCLUDE Org Dpt.New_id AT 06/2005\n"); code != http.StatusOK {
		t.Fatalf("evolve = %d: %s", code, body)
	}
	after, err := os.Stat(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Tear the final record at a deterministic pseudo-random interior
	// byte, as if the crash hit mid-write.
	recLen := after.Size() - before.Size()
	rnd := rand.New(rand.NewSource(20030101))
	cut := before.Size() + 1 + rnd.Int63n(recLen-1)
	if err := os.Truncate(wals[0], cut); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := openServer(t, dir, store.Options{})
	stats := st2.RecoveryStats()
	if stats.Replayed != 4 || stats.TornBytes != cut-before.Size() {
		t.Errorf("recovery stats = %+v (cut %d bytes into the record)", stats, cut-before.Size())
	}
	assertSameState(t, srv2, want)

	// The recovered server keeps serving writes: replaying the same
	// mutation lands on WAL seq 5.
	code, body := post(t, srv2, "/evolve", "EXCLUDE Org Dpt.New_id AT 06/2005\n")
	if code != http.StatusOK {
		t.Fatalf("evolve after recovery = %d: %s", code, body)
	}
	var resp struct {
		WALSeq uint64 `json:"walSeq"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.WALSeq != 5 {
		t.Fatalf("walSeq after recovery = %+v, %v", resp, err)
	}
}

// TestAutoSnapshotOverHTTP: with SnapshotEvery=2 the second accepted
// mutation triggers a snapshot and WAL truncation, transparently to
// the client.
func TestAutoSnapshotOverHTTP(t *testing.T) {
	dir := t.TempDir()
	srv, st := openServer(t, dir, store.Options{SnapshotEvery: 2})
	if code, body := post(t, srv, "/evolve", "EXCLUDE Org Dpt.Brian_id AT 01/2004\n"); code != http.StatusOK {
		t.Fatalf("evolve = %d: %s", code, body)
	}
	if st.SnapshotSeq() != 0 {
		t.Errorf("snapshot after 1 of 2 mutations: seq %d", st.SnapshotSeq())
	}
	if code, body := post(t, srv, "/facts", `[{"coords":["Dpt.Bill_id"],"time":"2004","values":[7]}]`); code != http.StatusOK {
		t.Fatalf("facts = %d: %s", code, body)
	}
	if st.SnapshotSeq() != 2 {
		t.Errorf("auto snapshot seq = %d, want 2", st.SnapshotSeq())
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*"))
	if len(snaps) != 1 {
		t.Errorf("snapshot files = %v", snaps)
	}
	// Recovery from the snapshot (nil replay tail) is byte-identical.
	want := captureState(t, srv)
	srv.Close()
	srv2, st2 := openServer(t, dir, store.Options{})
	if got := st2.RecoveryStats(); got.SnapshotSeq != 2 || got.Replayed != 0 {
		t.Errorf("recovery stats = %+v", got)
	}
	assertSameState(t, srv2, want)
}

// TestAdminSnapshotEndpoint: on-demand snapshots via POST.
func TestAdminSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	srv, st := openServer(t, dir, store.Options{})
	if code, body := post(t, srv, "/evolve", "EXCLUDE Org Dpt.Brian_id AT 01/2004\n"); code != http.StatusOK {
		t.Fatalf("evolve = %d: %s", code, body)
	}
	code, body := post(t, srv, "/admin/snapshot", "")
	if code != http.StatusOK {
		t.Fatalf("snapshot = %d: %s", code, body)
	}
	var resp struct {
		WALSeq uint64 `json:"walSeq"`
		Bytes  int64  `json:"bytes"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.WALSeq != 1 {
		t.Fatalf("snapshot response = %+v, %v", resp, err)
	}
	if st.SnapshotSeq() != 1 {
		t.Errorf("snapSeq = %d", st.SnapshotSeq())
	}
	// The answer, the store and /metrics agree on the file's size.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*"))
	if len(snaps) != 1 {
		t.Fatalf("snapshot files = %v", snaps)
	}
	info, err := os.Stat(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Bytes != info.Size() || st.SnapshotBytes() != info.Size() {
		t.Errorf("bytes: answer %d, store %d, file %d", resp.Bytes, st.SnapshotBytes(), info.Size())
	}
	_, metrics := get(t, srv, "/metrics")
	for _, series := range []string{
		fmt.Sprintf("mvolap_store_snapshot_bytes %d", info.Size()),
		`mvolap_store_snapshot_stage_seconds_count{stage="write"}`,
		`mvolap_store_snapshot_stage_seconds_count{stage="sync"}`,
		`mvolap_store_snapshot_stage_seconds_count{stage="rotate"}`,
		`mvolap_store_snapshot_stage_seconds_count{stage="compact"}`,
		"mvolap_store_snapshot_seconds_count",
	} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}

func TestAdminSnapshotWithoutStore(t *testing.T) {
	srv := testServer(t, WithEvolution())
	code, body := post(t, srv, "/admin/snapshot", "")
	if code != http.StatusForbidden {
		t.Errorf("snapshot without store = %d: %s", code, body)
	}
}

// TestReadyzLifecycle: a nil-schema server is alive but not ready;
// warehouse endpoints 503 until Install publishes the recovered
// schema.
func TestReadyzLifecycle(t *testing.T) {
	s := New(nil, WithLogger(quietLogger()))
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	if code, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz while recovering = %d", code)
	}
	if code, body := get(t, srv, "/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "recovering") {
		t.Errorf("readyz while recovering = %d %q", code, body)
	}
	for _, path := range []string{
		"/query?q=" + urlEncode("SELECT * BY Org.Division, TIME.YEAR MODE tcm"),
		"/modes",
		"/schema",
	} {
		if code, _ := get(t, srv, path); code != http.StatusServiceUnavailable {
			t.Errorf("%s while recovering = %d, want 503", path, code)
		}
	}

	sch, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Install(sch, nil, nil)

	if code, body := get(t, srv, "/readyz"); code != http.StatusOK ||
		!strings.Contains(string(body), "ready") {
		t.Errorf("readyz after install = %d %q", code, body)
	}
	if code, _ := get(t, srv, "/modes"); code != http.StatusOK {
		t.Errorf("modes after install = %d", code)
	}
}

// TestFactsEndpoint covers the durable-less /facts path: atomic batch
// semantics with the 422 envelope, and the 403/400 guards.
func TestFactsEndpoint(t *testing.T) {
	srv := testServer(t, WithEvolution())
	code, body := post(t, srv, "/facts",
		`[{"coords":["Dpt.Bill_id"],"time":"2004","values":[70]}]`)
	if code != http.StatusOK {
		t.Fatalf("facts = %d: %s", code, body)
	}
	var ok struct {
		Appended int `json:"appended"`
		Facts    int `json:"facts"`
	}
	if err := json.Unmarshal(body, &ok); err != nil || ok.Appended != 1 || ok.Facts != 11 {
		t.Fatalf("facts response = %+v, %v", ok, err)
	}

	// A batch with one bad fact applies nothing.
	code, body = post(t, srv, "/facts",
		`[{"coords":["Dpt.Paul_id"],"time":"2004","values":[1]},
		  {"coords":["nobody"],"time":"2004","values":[1]}]`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("bad batch = %d: %s", code, body)
	}
	var fail struct {
		FailedAt int  `json:"failedAt"`
		Retained bool `json:"retained"`
	}
	if err := json.Unmarshal(body, &fail); err != nil || fail.FailedAt != 1 || fail.Retained {
		t.Fatalf("422 envelope = %+v, %v: %s", fail, err, body)
	}
	var schema struct {
		Facts int `json:"facts"`
	}
	_, schemaBody := get(t, srv, "/schema")
	if err := json.Unmarshal(schemaBody, &schema); err != nil || schema.Facts != 11 {
		t.Errorf("facts after failed batch = %+v, %v (want the pre-batch 11)", schema, err)
	}

	if code, _ := post(t, srv, "/facts", `not json`); code != http.StatusBadRequest {
		t.Errorf("bad JSON = %d", code)
	}
	if code, _ := post(t, srv, "/facts", `[]`); code != http.StatusBadRequest {
		t.Errorf("empty batch = %d", code)
	}
	noEvolve := testServer(t)
	if code, _ := post(t, noEvolve, "/facts", `[{"coords":["Dpt.Bill_id"],"time":"2004","values":[1]}]`); code != http.StatusForbidden {
		t.Errorf("facts without WithEvolution = %d", code)
	}
}

// TestOversizedWriteBodyRejected is the defined response to a write
// body past the 1 MiB limit on all three mutation endpoints: 413 with
// the limit in the message, nothing applied, nothing appended to the
// WAL. Every body is a valid batch padded with whitespace, so a handler
// that cut it at the limit would either apply it (the script) or call
// it malformed JSON (the arrays).
func TestOversizedWriteBodyRejected(t *testing.T) {
	srv, st := openServer(t, t.TempDir(), store.Options{})
	mutate(t, srv)
	want := captureState(t, srv)
	seq := st.LastSeq()

	pad := strings.Repeat("\n", maxWriteBody)
	cases := []struct{ path, body string }{
		{"/evolve", "EXCLUDE Org Dpt.Smith_id AT 01/2006\n" + pad},
		{"/facts", `[{"coords":["Dpt.Bill_id"],"time":"2005","values":[1]}` + pad + `]`},
		{"/facts/retract", `[{"coords":["Dpt.Bill_id"],"time":"2004"}` + pad + `]`},
	}
	for _, c := range cases {
		code, body := post(t, srv, c.path, c.body)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body = %d, want 413: %.200s", c.path, len(c.body), code, body)
		}
		if !strings.Contains(string(body), strconv.Itoa(maxWriteBody)) {
			t.Errorf("%s: 413 message does not name the limit: %.200s", c.path, body)
		}
		if got := st.LastSeq(); got != seq {
			t.Errorf("%s: WAL advanced to seq %d, want it left at %d", c.path, got, seq)
		}
		assertSameState(t, srv, want)
		// The same batch inside the limit is accepted, so it was the size
		// alone that refused it.
		if code, body := post(t, srv, c.path, strings.ReplaceAll(c.body, pad, "")); code != http.StatusOK {
			t.Fatalf("%s unpadded = %d: %s", c.path, code, body)
		}
		want, seq = captureState(t, srv), st.LastSeq()
	}
}
