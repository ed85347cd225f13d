package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/store"
)

// The restart acceptance scenario over HTTP: mutate, build every
// temporal mode, snapshot, append a WAL tail, SIGKILL (abandon the
// store), restart. The snapshot carries no mode, so the restarted
// server builds each one cold; every answer must still be byte-identical
// to the live server's, whose warm tables folded the same writes.

// openRestartServer is openServer over the case study, also returning
// the served schema so the test can count materializations.
func openRestartServer(t *testing.T, dir string) (*httptest.Server, *store.Store, *core.Schema) {
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
	t.Cleanup(ts.Close)
	return ts, st, sch
}

// modeQuery is the per-mode probe whose answers the restart must
// preserve bit for bit.
func modeQuery(mode string) string {
	return "/query?q=" + urlEncode("SELECT Amount BY Org.Department, TIME.YEAR MODE "+mode)
}

// queryModes runs the probe in every given mode and returns the raw
// bodies, keyed by mode.
func queryModes(t *testing.T, srv *httptest.Server, modes []string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, m := range modes {
		code, body := get(t, srv, modeQuery(m))
		if code != http.StatusOK {
			t.Fatalf("query mode %s = %d: %s", m, code, body)
		}
		out[m] = body
	}
	return out
}

func TestCrashRecoveryWarmRestartHTTP(t *testing.T) {
	dir := t.TempDir()
	srv, _, _ := openRestartServer(t, dir)
	mutate(t, srv) // WAL 1..4: three evolves + a fact batch

	// Build every temporal mode through the query path.
	code, body := get(t, srv, "/modes")
	if code != http.StatusOK {
		t.Fatalf("modes = %d: %s", code, body)
	}
	var modeList []struct {
		Mode string `json:"mode"`
	}
	if err := json.Unmarshal(body, &modeList); err != nil {
		t.Fatal(err)
	}
	var modes []string
	for _, m := range modeList {
		modes = append(modes, m.Mode)
	}
	if len(modes) < 4 {
		t.Fatalf("fixture has %d modes, want >= 4", len(modes))
	}
	queryModes(t, srv, modes)

	// Snapshot, then a WAL-tail fact batch the snapshot does not cover.
	code, body = post(t, srv, "/admin/snapshot", "")
	if code != http.StatusOK {
		t.Fatalf("snapshot = %d: %s", code, body)
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil || snap["walSeq"] != 4.0 || snap["bytes"] == nil {
		t.Fatalf("snapshot answer = %s (%v), want walSeq 4 and bytes", body, err)
	}
	if _, ok := snap["warmModes"]; ok {
		t.Errorf("snapshot answer still names warm modes: %s", body)
	}
	if code, body := post(t, srv, "/facts",
		`[{"coords":["Dpt.Smith_id"],"time":"2005","values":[11]}]`); code != http.StatusOK {
		t.Fatalf("tail facts = %d: %s", code, body)
	}
	// The live lineage's answers, from the tables that folded the tail.
	want := queryModes(t, srv, modes)
	srv.Close() // the store is abandoned un-closed: simulated SIGKILL

	srv2, st2, sch2 := openRestartServer(t, dir)
	stats := st2.RecoveryStats()
	if stats.Replayed != 1 {
		t.Errorf("replayed = %d, want the 1 post-snapshot record", stats.Replayed)
	}

	code, body = get(t, srv2, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz = %d: %s", code, body)
	}
	var ready map[string]any
	if err := json.Unmarshal(body, &ready); err != nil || ready["status"] != "ready" || ready["walSeq"] != 5.0 {
		t.Fatalf("readyz body = %s (%v), want ready at walSeq 5", body, err)
	}
	if _, ok := ready["warmRestoredModes"]; ok {
		t.Errorf("readyz still reports restored modes: %s", body)
	}

	// No mode is built: each presents the recovered fact store, and
	// answers like the live server did.
	got := queryModes(t, srv2, modes)
	if builds := sch2.MultiVersion().Materializations(); builds != 0 {
		t.Errorf("restarted server built %d modes, want none", builds)
	}
	for _, m := range modes {
		if string(got[m]) != string(want[m]) {
			t.Errorf("mode %s: recovered answer differs from the live server's:\n%s\nwant:\n%s", m, got[m], want[m])
		}
	}
}
