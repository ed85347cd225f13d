package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"mvolap/internal/store"
)

// TestFactsRetractEndpoint drives the correction path over HTTP
// against a store-backed leader: append, retract (one appended and one
// seed tuple), and observe the WAL sequence advance, the warm modes
// absorb the retraction without rebuilding, and the query results
// change accordingly.
func TestFactsRetractEndpoint(t *testing.T) {
	srv, st := openServer(t, t.TempDir(), store.Options{})

	code, body := post(t, srv, "/facts", `[{"coords":["Dpt.Bill_id"],"time":"2004","values":[70]}]`)
	if code != http.StatusOK {
		t.Fatalf("facts = %d: %s", code, body)
	}
	before := captureState(t, srv)

	code, body = post(t, srv, "/facts/retract",
		`[{"coords":["Dpt.Bill_id"],"time":"2004"},{"coords":["Dpt.Smith_id"],"time":"2002"}]`)
	if code != http.StatusOK {
		t.Fatalf("retract = %d: %s", code, body)
	}
	var resp struct {
		Retracted       int      `json:"retracted"`
		Facts           int      `json:"facts"`
		WALSeq          uint64   `json:"walSeq"`
		ModesSubtracted int      `json:"modesSubtracted"`
		RetainedModes   []string `json:"retainedModes"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("retract body %s: %v", body, err)
	}
	if resp.Retracted != 2 || resp.WALSeq != 2 {
		t.Fatalf("retract resp = %+v, want 2 retracted at walSeq 2", resp)
	}
	if resp.Facts != 9 { // 10 seed + 1 appended - 2 retracted
		t.Fatalf("facts = %d, want 9", resp.Facts)
	}
	// A mode has no warm state: the retraction tombstones the fact
	// table and leaves no mode to subtract from.
	if resp.ModesSubtracted != 0 || resp.RetainedModes == nil || len(resp.RetainedModes) != 0 {
		t.Fatalf("retraction envelope %+v, want no mode subtracted or retained", resp)
	}

	after := captureState(t, srv)
	same := 0
	for i := range before {
		if string(before[i]) == string(after[i]) {
			same++
		}
	}
	if same == len(before) {
		t.Fatal("retraction changed no query answer")
	}

	// Retracting the same tuple again is a whole-batch miss.
	code, body = post(t, srv, "/facts/retract", `[{"coords":["Dpt.Smith_id"],"time":"2002"}]`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("double retract = %d: %s", code, body)
	}
	if st.LastSeq() != 2 {
		t.Fatalf("failed retract advanced the WAL to %d", st.LastSeq())
	}

	// The retraction's stages are exposed.
	code, body = get(t, srv, "/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), `mvolap_write_stage_seconds_count{op="retract",stage="apply"}`) {
		t.Error("retraction metrics missing from /metrics")
	}
}

// TestFactsRetractAtomic pins the 422 contract: a batch whose second
// record misses must change nothing — no schema mutation, no WAL
// record, byte-identical query answers.
func TestFactsRetractAtomic(t *testing.T) {
	srv, st := openServer(t, t.TempDir(), store.Options{})
	want := captureState(t, srv)
	seqBefore := st.LastSeq()

	code, body := post(t, srv, "/facts/retract",
		`[{"coords":["Dpt.Smith_id"],"time":"2002"},{"coords":["Dpt.Smith_id"],"time":"2050"}]`)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("retract with miss = %d: %s", code, body)
	}
	var errResp struct {
		Error    string `json:"error"`
		FailedAt int    `json:"failedAt"`
		Retained bool   `json:"retained"`
	}
	if err := json.Unmarshal(body, &errResp); err != nil || errResp.FailedAt != 1 || errResp.Retained {
		t.Fatalf("422 envelope = %s (%v)", body, err)
	}
	if st.LastSeq() != seqBefore {
		t.Fatalf("failed batch was logged: seq %d → %d", seqBefore, st.LastSeq())
	}
	assertSameState(t, srv, want)
}

// TestFactsRetractValidation covers the client-error edges shared with
// /facts: malformed JSON and empty batches are 400s, and a server
// without WithEvolution refuses outright.
func TestFactsRetractValidation(t *testing.T) {
	srv := testServer(t, WithEvolution())
	if code, _ := post(t, srv, "/facts/retract", `not json`); code != http.StatusBadRequest {
		t.Error("malformed batch must be 400")
	}
	if code, _ := post(t, srv, "/facts/retract", `[]`); code != http.StatusBadRequest {
		t.Error("empty batch must be 400")
	}
	noEvolve := testServer(t)
	if code, _ := post(t, noEvolve, "/facts/retract", `[{"coords":["Dpt.Smith_id"],"time":"2002"}]`); code != http.StatusForbidden {
		t.Error("retract without WithEvolution must be 403")
	}
}

// TestFollowerRetractConvergence streams a retraction to a live
// follower mid-stream: the follower must apply the retract record and
// answer every persistence query byte-identically to the leader; and
// as a read-only node it must refuse direct retractions, naming the
// leader.
func TestFollowerRetractConvergence(t *testing.T) {
	leaderTS, _, st := startLeader(t, t.TempDir())
	mutate(t, leaderTS) // seqs 1..4: evolutions + a fact batch

	fTS, rep, _ := startFollower(t, leaderTS.URL, store.ReplicaOptions{})
	waitApplied(t, rep, 4)

	// Retraction arrives while the follower is streaming.
	code, body := post(t, leaderTS, "/facts/retract",
		`[{"coords":["Dpt.Bill_id"],"time":"2004"},{"coords":["Dpt.Brian_id"],"time":"2003"}]`)
	if code != http.StatusOK {
		t.Fatalf("leader retract = %d: %s", code, body)
	}
	if st.LastSeq() != 5 {
		t.Fatalf("leader seq = %d, want 5", st.LastSeq())
	}
	waitApplied(t, rep, 5)

	want := captureState(t, leaderTS)
	assertSameState(t, fTS, want)

	// A late-joining follower bootstraps the retracted state too.
	f2TS, rep2, _ := startFollower(t, leaderTS.URL, store.ReplicaOptions{})
	waitApplied(t, rep2, 5)
	assertSameState(t, f2TS, want)

	// Followers are read-only for corrections like everything else.
	code, body = post(t, fTS, "/facts/retract", `[{"coords":["Dpt.Smith_id"],"time":"2002"}]`)
	if code != http.StatusForbidden || !strings.Contains(string(body), leaderTS.URL) {
		t.Errorf("follower retract = %d: %s", code, body)
	}
}
