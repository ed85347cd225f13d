package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/store"
)

// The restart acceptance scenario over HTTP: mutate, ask every temporal
// mode, snapshot, append a WAL tail, SIGKILL (abandon the store),
// restart. The snapshot carries no mode, so the restarted server
// presents each one from the recovered fact store; every answer must
// still be byte-identical to the live server's.

// openRestartServer is openServer over the case study, also returning
// the store so the test can read its WAL sequence.
func openRestartServer(t *testing.T, dir string) (*httptest.Server, *store.Store) {
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
	return ts, st
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
	srv, _ := openRestartServer(t, dir)
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

	srv2, st2 := openRestartServer(t, dir)
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
	for _, m := range modes {
		if string(got[m]) != string(want[m]) {
			t.Errorf("mode %s: recovered answer differs from the live server's:\n%s\nwant:\n%s", m, got[m], want[m])
		}
	}
}

// TestExcludeLeavingFactsRefused holds Definition 5 at write time: an
// EXCLUDE that would leave a stored fact past the member version's new
// end is refused with a 422 that names the fact, and nothing reaches
// the WAL. A snapshot taken after it reopens: acked, such a write made
// a snapshot whose facts the snapshot reader refuses, and the data
// directory could not be opened again. Once the facts are retracted
// the same EXCLUDE is accepted.
func TestExcludeLeavingFactsRefused(t *testing.T) {
	dir := t.TempDir()
	srv, st := openRestartServer(t, dir)
	seq := st.LastSeq()
	code, body := post(t, srv, "/evolve", "EXCLUDE Org Dpt.Brian_id AT 01/2002\n")
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), `fact at Dpt.Brian_id 01/2002`) {
		t.Fatalf("EXCLUDE past Brian's facts = %d: %s; want 422 naming the fact at 01/2002", code, body)
	}
	if st.LastSeq() != seq {
		t.Fatalf("walSeq %d after the refusal, want %d", st.LastSeq(), seq)
	}
	modes := listModes(t, srv)
	want := queryModes(t, srv, modes)
	if code, body := post(t, srv, "/admin/snapshot", ""); code != http.StatusOK {
		t.Fatalf("snapshot = %d: %s", code, body)
	}
	srv.Close() // abandoned un-closed, as a killed process leaves it

	srv2, st2 := openRestartServer(t, dir)
	if st2.LastSeq() != seq {
		t.Fatalf("reopened at walSeq %d, want %d", st2.LastSeq(), seq)
	}
	got := queryModes(t, srv2, modes)
	for _, m := range modes {
		if string(got[m]) != string(want[m]) {
			t.Errorf("mode %s after the reopen:\n%s\nwant:\n%s", m, got[m], want[m])
		}
	}

	// Retract Brian's facts from 2002 on, and the EXCLUDE applies.
	if code, body := post(t, srv2, "/facts/retract",
		`[{"coords":["Dpt.Brian_id"],"time":"2002"},{"coords":["Dpt.Brian_id"],"time":"2003"}]`); code != http.StatusOK {
		t.Fatalf("retract = %d: %s", code, body)
	}
	if code, body := post(t, srv2, "/evolve", "EXCLUDE Org Dpt.Brian_id AT 01/2002\n"); code != http.StatusOK {
		t.Fatalf("EXCLUDE after the retraction = %d: %s", code, body)
	}
}
