package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mvolap/internal/store"
	"mvolap/internal/workload"
)

// The serving-tier equivalence property behind the whole query fast
// path: with zone-map pruning, the result cache (facts-window
// retargeting and additive-evolve retention included) and the parallel
// fold all active, every /query response must be byte-identical to a
// server answering the same state with the cache disabled — whose
// every answer is a fresh scan. The test drives a seeded workload of
// queries, fact appends and evolution scripts (additive inserts and
// reclassifies, the generator's mix) through a store-backed leader,
// replicated to a cached and an uncached follower, and compares all
// three at a replication barrier after every step.

// propertyQuery fetches one query from all three servers at the given
// replication barrier and requires byte-identical bodies.
func propertyQuery(t *testing.T, stmt string, seq uint64, leader, cached, uncached *httptest.Server) {
	t.Helper()
	path := "/query?q=" + urlEncode(stmt)
	if seq > 0 {
		path += "&minWalSeq=" + strconv.FormatUint(seq, 10)
	}
	codeL, bodyL := get(t, leader, path)
	codeC, bodyC := get(t, cached, path)
	codeU, bodyU := get(t, uncached, path)
	if codeL != codeC || codeL != codeU {
		t.Fatalf("status diverges for %q: leader=%d cached=%d uncached=%d", stmt, codeL, codeC, codeU)
	}
	if codeL != http.StatusOK {
		return // all three rejected the statement identically
	}
	if string(bodyL) != string(bodyU) {
		t.Fatalf("leader (cached) diverges from uncached follower for %q:\n%s\nvs\n%s", stmt, bodyL, bodyU)
	}
	if string(bodyC) != string(bodyU) {
		t.Fatalf("cached follower diverges from uncached follower for %q:\n%s\nvs\n%s", stmt, bodyC, bodyU)
	}
}

// counterValue reads one plain counter from a server's /metrics
// exposition (the process-global registry: all in-process servers
// share it).
func counterValue(t *testing.T, srv *httptest.Server, name string) float64 {
	t.Helper()
	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metrics exposition missing %q", name)
	return 0
}

func TestPropertyCachedServingByteIdentical(t *testing.T) {
	leaderTS, leaderSrv, _ := startLeader(t, t.TempDir())
	cachedTS, cachedRep, _ := startFollower(t, leaderTS.URL, store.ReplicaOptions{})
	uncachedTS, uncachedRep, _ := startFollower(t, leaderTS.URL, store.ReplicaOptions{}, WithQueryCache(0))

	surface := workload.SurfaceOf(leaderSrv.snapshot())
	if err := surface.Validate(); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewOpGen(11, surface, "prop")

	var seq uint64
	barrier := func() {
		if seq == 0 {
			return
		}
		waitApplied(t, cachedRep, seq)
		waitApplied(t, uncachedRep, seq)
	}
	postLeader := func(path, body string) (int, []byte) {
		code, resp := post(t, leaderTS, path, body)
		if code == http.StatusOK {
			var r struct {
				WALSeq uint64 `json:"walSeq"`
			}
			if err := json.Unmarshal(resp, &r); err != nil {
				t.Fatalf("%s response %q: %v", path, resp, err)
			}
			seq = r.WALSeq
		}
		return code, resp
	}

	// Seeded random interleaving. Statements repeat (the generator's
	// keyspace is small), so the cached servers serve a mix of fresh
	// scans, LRU hits, and entries revalidated across mutations.
	var stmts []string
	for i := 0; i < 60; i++ {
		switch r := gen.Rand().Intn(10); {
		case r < 6:
			stmt := gen.Query()
			stmts = append(stmts, stmt)
			barrier()
			propertyQuery(t, stmt, seq, leaderTS, cachedTS, uncachedTS)
			// Replay an earlier statement too: the repeat is the one
			// that can hit or revalidate a cache entry.
			replay := stmts[gen.Rand().Intn(len(stmts))]
			propertyQuery(t, replay, seq, leaderTS, cachedTS, uncachedTS)
		case r < 8:
			batch, err := json.Marshal(gen.FactBatch(1 + gen.Rand().Intn(3)))
			if err != nil {
				t.Fatal(err)
			}
			if code, resp := postLeader("/facts", string(batch)); code != http.StatusOK {
				t.Fatalf("facts = %d: %s", code, resp)
			}
		default:
			// Evolution scripts are additive inserts or reclassifies;
			// a script the evolved structure no longer accepts leaves
			// the state unchanged on every server, which is fine for
			// the identity property.
			postLeader("/evolve", gen.EvolveScript())
		}
	}

	// Directed retarget coverage: cache a bounded-range query, append
	// facts at a disjoint later instant, and require (a) byte-identity
	// against the uncached follower and (b) that entries were
	// revalidated rather than dropped — the facts-window path, not a
	// wholesale flush.
	oldRange := "SELECT Amount BY Org.Division, TIME.YEAR WHERE TIME BETWEEN 2001 AND 2002 MODE tcm"
	barrier()
	propertyQuery(t, oldRange, seq, leaderTS, cachedTS, uncachedTS)
	retainedBefore := counterValue(t, leaderTS, "mvolap_query_cache_retained_total")
	if code, resp := postLeader("/facts",
		`[{"coords":["Dpt.Smith_id"],"time":"2015","values":[5]}]`); code != http.StatusOK {
		t.Fatalf("facts = %d: %s", code, resp)
	}
	barrier()
	propertyQuery(t, oldRange, seq, leaderTS, cachedTS, uncachedTS)
	if after := counterValue(t, leaderTS, "mvolap_query_cache_retained_total"); after <= retainedBefore {
		t.Fatalf("facts append at a disjoint instant retained no cache entries (%v -> %v)", retainedBefore, after)
	}

	// Directed additive-retention coverage: a fresh member with only an
	// upward edge must retain every entry.
	propertyQuery(t, oldRange, seq, leaderTS, cachedTS, uncachedTS)
	retainedBefore = counterValue(t, leaderTS, "mvolap_query_cache_retained_total")
	if code, resp := postLeader("/evolve",
		"INSERT Org Dpt.PropNew_id Dpt.PropNew LEVEL Department AT 01/2015 PARENTS Sales_id\n"); code != http.StatusOK {
		t.Fatalf("evolve = %d: %s", code, resp)
	}
	barrier()
	propertyQuery(t, oldRange, seq, leaderTS, cachedTS, uncachedTS)
	if after := counterValue(t, leaderTS, "mvolap_query_cache_retained_total"); after <= retainedBefore {
		t.Fatalf("additive evolve retained no cache entries (%v -> %v)", retainedBefore, after)
	}
	for _, stmt := range stmts[:min(len(stmts), 10)] {
		propertyQuery(t, stmt, seq, leaderTS, cachedTS, uncachedTS)
	}

	// Directed rerouting coverage: before each write every statement
	// below is cached on the leader and the cached follower, after it
	// all three servers must still agree byte for byte. Each write can
	// change one of the cached answers unless the cache drops it (the
	// fresh parent of a fresh child can change none).
	watched := []string{
		oldRange,
		"SELECT Amount BY Org.Division, TIME.YEAR WHERE TIME BETWEEN 2015 AND 2018 MODE tcm",
		"SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2015 AND 2015 MODE VERSION AT 2016",
		"SELECT Amount BY Org.Division, TIME.ALL MODE tcm",
	}
	write := func(path, body string) {
		t.Helper()
		for _, stmt := range watched {
			propertyQuery(t, stmt, seq, leaderTS, cachedTS, uncachedTS)
		}
		if code, resp := postLeader(path, body); code != http.StatusOK {
			t.Fatalf("%s %q = %d: %s", path, body, code, resp)
		}
		barrier()
		for _, stmt := range watched {
			propertyQuery(t, stmt, seq, leaderTS, cachedTS, uncachedTS)
		}
	}
	// A new division over an existing department: Dpt.Smith_id's 2015
	// fact now rolls up to it as well.
	write("/evolve", "INSERT Org Div.PropOver_id Div.PropOver LEVEL Division AT 01/2015 CHILDREN Dpt.Smith_id\n")
	// Dpt.PropNew_id gets a fact it keeps and one retracted before the
	// exclusion, which would otherwise leave it past its member's end.
	write("/facts", `[{"coords":["Dpt.PropNew_id"],"time":"06/2015","values":[7]},`+
		`{"coords":["Dpt.PropNew_id"],"time":"03/2016","values":[9]}]`)
	write("/facts/retract", `[{"coords":["Dpt.PropNew_id"],"time":"03/2016"}]`)
	write("/evolve", "EXCLUDE Org Dpt.PropNew_id AT 01/2016\n")
	// VERSION AT 2016 no longer holds Dpt.PropNew_id: the mapping
	// presents its 2015 fact at Dpt.Brian_id.
	write("/evolve", "ASSOCIATE Dpt.PropNew_id Dpt.Brian_id FORWARD - em BACKWARD - em\n")
	write("/evolve", "INSERT Org Dpt.PropKid_id Dpt.PropKid LEVEL Department AT 01/2017\n"+
		"INSERT Org Div.PropTop_id Div.PropTop LEVEL Division AT 01/2017 CHILDREN Dpt.PropKid_id\n")
	// Last: an unlevelled member switches Org to derived depth levels.
	write("/evolve", "INSERT Org Dpt.PropFlat_id Dpt.PropFlat AT 01/2018 PARENTS Sales_id\n")
}
