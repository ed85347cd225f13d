package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mvolap/internal/store"
)

// TestNoOpReclassifyAnswersIdenticallyEverywhere is the regression test
// of an edge ended and re-created in adjacent pieces: RECLASSIFY … FROM p
// TO p leaves every D(t) as it was, so the structure version spanning
// the instant stays whole — and used to lose the edge whenever its
// restriction was computed afresh (one stored piece had to cover the
// whole interval, and there were two). The live server, which salvaged
// the old restriction, then answered differently from the same server
// after Invalidate(), from a crash-recovered one and from a follower.
func TestNoOpReclassifyAnswersIdenticallyEverywhere(t *testing.T) {
	dir := t.TempDir()
	leaderTS, leader, _ := startLeader(t, dir)
	queries := []string{
		"/query?q=" + urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE VERSION AT 2003"),
		"/query?q=" + urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm"),
		"/query?q=" + urlEncode("SELECT Amount BY Org.Department, TIME.ALL MODE VERSION AT 2003"),
		"/modes",
	}
	answers := func(label string, ts *httptest.Server) []string {
		t.Helper()
		var out []string
		for _, q := range queries {
			code, body := get(t, ts, q)
			if code != http.StatusOK {
				t.Fatalf("%s: %s = %d: %s", label, q, code, body)
			}
			out = append(out, string(body))
		}
		return out
	}

	before := answers("before", leaderTS) // warms the version the evolve must not damage
	code, body := post(t, leaderTS, "/evolve", "RECLASSIFY Org Dpt.Brian_id AT 06/2003 FROM R&D_id TO R&D_id\n")
	if code != http.StatusOK {
		t.Fatalf("evolve = %d: %s", code, body)
	}
	var ack struct {
		WALSeq uint64 `json:"walSeq"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.WALSeq == 0 {
		t.Fatalf("evolve answer %s: %v", body, err)
	}

	live := answers("live", leaderTS)
	for i := range queries {
		if live[i] != before[i] {
			t.Errorf("%s changed across a no-op reclassify:\n%s\nwas:\n%s", queries[i], live[i], before[i])
		}
	}
	requireSame := func(label string, got []string) {
		t.Helper()
		for i := range queries {
			if got[i] != live[i] {
				t.Errorf("%s: %s differs from the live answer:\n%s\nlive:\n%s", label, queries[i], got[i], live[i])
			}
		}
	}

	leader.snapshot().Invalidate()
	requireSame("after Invalidate()", answers("invalidated", leaderTS))

	followerTS, rep, _ := startFollower(t, leaderTS.URL, store.ReplicaOptions{})
	waitApplied(t, rep, ack.WALSeq)
	requireSame("follower", answers("follower", followerTS))

	// The leader's store is abandoned, not closed: a SIGKILL.
	recoveredTS, _ := openServer(t, dir, store.Options{})
	requireSame("crash-recovered", answers("recovered", recoveredTS))
}
