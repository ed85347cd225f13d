package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/obs"
)

// newWarmServer returns the Server itself alongside its test listener,
// so tests can reach through to the served schema's MVFT counters.
func newWarmServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sch, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	s := New(sch, WithLogger(quietLogger()), WithEvolution())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// listModes fetches the schema's temporal modes over HTTP.
func listModes(t *testing.T, srv *httptest.Server) []string {
	t.Helper()
	code, body := get(t, srv, "/modes")
	if code != http.StatusOK {
		t.Fatalf("/modes = %d: %s", code, body)
	}
	var entries []struct {
		Mode string `json:"mode"`
	}
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Mode
	}
	return out
}

// warmAllModes queries every mode once so each MappedTable is cached.
func warmAllModes(t *testing.T, srv *httptest.Server, modes []string) {
	t.Helper()
	for _, m := range modes {
		code, body := get(t, srv, "/query?q="+
			urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE "+m))
		if code != http.StatusOK {
			t.Fatalf("warm query mode %s = %d: %s", m, code, body)
		}
	}
}

type mutateResponse struct {
	RetainedModes []string      `json:"retainedModes"`
	EvictedModes  []string      `json:"evictedModes"`
	DeltaApplies  int           `json:"deltaApplies"`
	Trace         *obs.SpanNode `json:"trace"`
}

// TestFactsWarmSwap is the acceptance test for the tentpole at the
// serving tier: after an insert-only /facts swap, every previously
// cached mode answers on the new schema without a single
// rematerialization — the batch was folded in as a delta.
func TestFactsWarmSwap(t *testing.T) {
	s, srv := newWarmServer(t)
	modes := listModes(t, srv)
	if len(modes) < 2 {
		t.Fatalf("case study has %d modes, want several", len(modes))
	}
	warmAllModes(t, srv, modes)

	code, body := post(t, srv, "/facts?trace=1",
		`[{"coords":["Dpt.Bill_id"],"time":"2004","values":[70]},
		  {"coords":["Dpt.Paul_id"],"time":"2004","values":[30]}]`)
	if code != http.StatusOK {
		t.Fatalf("facts = %d: %s", code, body)
	}
	var resp mutateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	for _, m := range modes {
		if !slices.Contains(resp.RetainedModes, m) {
			t.Errorf("mode %s not retained across a pure fact batch: %+v", m, resp)
		}
	}
	if len(resp.EvictedModes) != 0 {
		t.Errorf("evicted %v on a pure fact batch", resp.EvictedModes)
	}
	if resp.DeltaApplies != len(modes) {
		t.Errorf("deltaApplies = %d, want %d", resp.DeltaApplies, len(modes))
	}
	if resp.Trace == nil || resp.Trace.Find("mvft_delta") == nil {
		t.Fatalf("trace=1 response missing mvft_delta span: %s", body)
	}
	// Key-index maintenance is reported on the span; a two-fact batch
	// on a cold-built warehouse seals and merges nothing.
	if a := resp.Trace.Find("mvft_delta").Attrs; a["sealed"] != 0.0 || a["merged"] != 0.0 {
		t.Errorf("mvft_delta attrs = %v, want sealed 0 and merged 0", a)
	}

	mv := s.snapshot().MultiVersion()
	if b := mv.Materializations(); b != 0 {
		t.Fatalf("swap triggered %d materializations, want 0", b)
	}
	if d := mv.DeltaApplies(); d != int64(len(modes)) {
		t.Fatalf("DeltaApplies = %d, want %d", d, len(modes))
	}

	// Queries on the swapped schema serve from the warm tables — still
	// zero builds — and see the new facts.
	warmAllModes(t, srv, modes)
	if b := s.snapshot().MultiVersion().Materializations(); b != 0 {
		t.Fatalf("post-swap queries rematerialized %d modes, want 0", b)
	}
	code, body = get(t, srv, "/query?q="+
		urlEncode("SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2004 AND 2004 MODE tcm"))
	if code != http.StatusOK {
		t.Fatalf("query = %d: %s", code, body)
	}
	var q struct {
		Rows []struct {
			Groups []string   `json:"groups"`
			Values []*float64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, r := range q.Rows {
		if len(r.Groups) > 0 && r.Groups[0] == "Dpt.Bill" && r.Values[0] != nil && *r.Values[0] == 70 {
			seen = true
		}
	}
	if !seen {
		t.Errorf("delta-applied fact not visible in warm tcm: %s", body)
	}
}

// TestEvolveWarmSwap verifies structure-aware invalidation end to end:
// an EXCLUDE that splits only the tail of history keeps tcm (and any
// untouched version) warm and evicts exactly the modes whose partition
// slice changed.
func TestEvolveWarmSwap(t *testing.T) {
	s, srv := newWarmServer(t)
	modes := listModes(t, srv)
	warmAllModes(t, srv, modes)

	code, body := post(t, srv, "/evolve?trace=1", "EXCLUDE Org Dpt.Brian_id AT 01/2004\n")
	if code != http.StatusOK {
		t.Fatalf("evolve = %d: %s", code, body)
	}
	var resp mutateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	// The derivation sweeps again the one dimension the evolve mutated:
	// [2003 ; Now] splits in two, four versions in all.
	sp := resp.Trace.Find("structure_versions")
	if sp == nil {
		t.Fatalf("trace=1 response missing structure_versions span: %s", body)
	}
	if sp.Attrs["swept"] != "Org" || sp.Attrs["versions"] != 4.0 {
		t.Errorf("structure_versions span attrs = %v, want swept Org, versions 4", sp.Attrs)
	}
	if resp.Trace.Find("mvft_delta") == nil {
		t.Errorf("trace=1 response missing mvft_delta span: %s", body)
	}
	_, metrics := get(t, srv, "/metrics")
	for _, name := range []string{
		`mvolap_structure_versions_recomputed_total{dim="Org"}`,
		"mvolap_structure_versions_seconds_count",
		`mvolap_rollup_tables_built_total{dim="Org"}`,
	} {
		if !strings.Contains(string(metrics), "\n"+name+" ") {
			t.Errorf("/metrics after an evolve is missing %s", name)
		}
	}
	if !slices.Contains(resp.RetainedModes, "tcm") {
		t.Errorf("tcm evicted by a dimension-only change: %+v", resp)
	}
	if len(resp.EvictedModes) == 0 {
		t.Errorf("no mode evicted although the structure-version partition changed: %+v", resp)
	}
	if slices.Contains(resp.EvictedModes, "tcm") {
		t.Errorf("tcm must never be evicted by dimension changes: %+v", resp)
	}

	// Retained modes answer without builds; querying an evicted mode
	// triggers exactly its one rematerialization.
	mv := s.snapshot().MultiVersion()
	if b := mv.Materializations(); b != 0 {
		t.Fatalf("swap triggered %d materializations, want 0", b)
	}
	warmAllModes(t, srv, resp.RetainedModes)
	if b := mv.Materializations(); b != 0 {
		t.Fatalf("queries in retained modes rebuilt %d times, want 0", b)
	}
	evicted := resp.EvictedModes[0]
	if code, body := get(t, srv, "/query?q="+
		urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE "+evicted)); code != http.StatusOK {
		t.Fatalf("query evicted mode %s = %d: %s", evicted, code, body)
	}
	if b := mv.Materializations(); b != 1 {
		t.Fatalf("evicted mode rebuilds = %d, want 1", b)
	}
}

// TestAssociateWarmSwap: a mapping change evicts every version mode
// (the graph is global) but keeps tcm warm.
func TestAssociateWarmSwap(t *testing.T) {
	_, srv := newWarmServer(t)
	modes := listModes(t, srv)
	warmAllModes(t, srv, modes)

	code, body := post(t, srv, "/evolve",
		"ASSOCIATE Dpt.Smith_id Dpt.Brian_id FORWARD - am BACKWARD - am\n")
	if code != http.StatusOK {
		t.Fatalf("evolve = %d: %s", code, body)
	}
	var resp mutateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.RetainedModes) != 1 || resp.RetainedModes[0] != "tcm" {
		t.Errorf("retained = %v, want exactly tcm", resp.RetainedModes)
	}
	if len(resp.EvictedModes) != len(modes)-1 {
		t.Errorf("evicted = %v, want the %d version modes", resp.EvictedModes, len(modes)-1)
	}
}
