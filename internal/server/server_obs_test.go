package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/obs"
)

// TestMetricsEndpoint asserts the acceptance criterion: after
// exercising /query, GET /metrics serves the query latency histogram,
// the per-endpoint request counters, the resolution-table counter and
// the published fact store's bytes in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	// A version mode: tcm reads the fact table as it is stored.
	q := "/query?q=" + urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE VERSION AT 2002")
	for i := 0; i < 2; i++ { // the second run finds the resolution table built
		if code, body := get(t, srv, q); code != http.StatusOK {
			t.Fatalf("query = %d: %s", code, body)
		}
	}
	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	out := string(body)
	for _, want := range []string{
		`mvolap_http_requests_total{endpoint="/query",code="200"}`,
		`mvolap_http_request_seconds_bucket{endpoint="/query",le="+Inf"}`,
		`mvolap_http_request_seconds_count{endpoint="/query"}`,
		`mvolap_resolve_tables_built_total{dim="Org"}`,
		"mvolap_query_facts_scanned_total",
		"mvolap_http_in_flight",
		`mvolap_fact_store_bytes{part="columns"}`,
		`mvolap_fact_store_bytes{part="index"}`,
		`mvolap_fact_store_bytes{part="stats"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestDebugVarsEndpoint asserts the JSON flavour of the registry.
func TestDebugVarsEndpoint(t *testing.T) {
	srv := testServer(t)
	get(t, srv, "/query?q="+urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm"))
	code, body := get(t, srv, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("debug/vars = %d", code)
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	for _, want := range []string{
		"mvolap_http_requests_total",
		"mvolap_query_facts_scanned_total",
		"mvolap_resolve_tables_built_total",
	} {
		if _, ok := snap[want]; !ok {
			t.Errorf("snapshot missing %q", want)
		}
	}
}

// TestQueryTrace asserts the acceptance criterion for ?trace=1: the
// response embeds a span tree containing at least the parse,
// resolve, aggregate (with its scan stages) and encode stages.
func TestQueryTrace(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv, "/query?q="+
		urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm")+"&trace=1")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var resp struct {
		Rows  []json.RawMessage `json:"rows"`
		Trace *obs.SpanNode     `json:"trace"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Rows) == 0 {
		t.Fatal("traced query should still return rows")
	}
	if resp.Trace == nil {
		t.Fatal("trace=1 response has no trace")
	}
	for _, stage := range []string{"parse", "resolve", "aggregate", "encode"} {
		if resp.Trace.Find(stage) == nil {
			t.Errorf("trace missing %q span:\n%s", stage, body)
		}
	}
	// The scan says where its time went: three stages under aggregate,
	// each with the counts that explain its duration.
	agg := resp.Trace.Find("aggregate")
	for stage, attrs := range map[string][]string{
		"prune": {"shards", "shards_pruned", "facts_pruned"},
		"scan":  {"tuples", "emissions", "cells"},
		"sort":  {"rows"},
	} {
		sp := agg.Find(stage)
		if sp == nil {
			t.Errorf("aggregate has no %q child:\n%s", stage, body)
			continue
		}
		for _, a := range attrs {
			if _, ok := sp.Attrs[a]; !ok {
				t.Errorf("%s span lacks attr %q: %v", stage, a, sp.Attrs)
			}
		}
	}
	if enc := resp.Trace.Find("encode"); enc != nil && (enc.Attrs["rows"] != float64(len(resp.Rows)) || enc.Attrs["bytes"] == nil) {
		t.Errorf("encode span attrs = %v, want rows=%d and bytes", enc.Attrs, len(resp.Rows))
	}
	// Without trace=1 the field is absent.
	_, body = get(t, srv, "/query?q="+urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm"))
	if strings.Contains(string(body), `"trace"`) {
		t.Error("untraced response should omit the trace field")
	}
}

// TestEmptyResultJSONShape is the golden test for the empty-result
// encoding: rows must be [] and never null.
func TestEmptyResultJSONShape(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv, "/query?q="+
		urlEncode("SELECT Amount BY Org.Division, TIME.YEAR WHERE TIME BETWEEN 1990 AND 1991 MODE tcm"))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	if !strings.Contains(string(body), `"rows": []`) {
		t.Errorf("empty result should encode rows as [], got:\n%s", body)
	}
	if strings.Contains(string(body), `"rows": null`) {
		t.Errorf("rows must never be null:\n%s", body)
	}
	var resp struct {
		Rows []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rows == nil || len(resp.Rows) != 0 {
		t.Errorf("rows = %v, want empty non-nil", resp.Rows)
	}
}

// TestNoMeasureJSONShape is the golden test for statements whose
// output carries no measured rows (MODES, EXPLAIN): the rows array is
// still [] and per-row arrays are never null anywhere.
func TestNoMeasureJSONShape(t *testing.T) {
	srv := testServer(t)
	for _, q := range []string{"MODES", "EXPLAIN Dpt.Jones_id AT 2003 MODE V2"} {
		code, body := get(t, srv, "/query?q="+urlEncode(q))
		if code != http.StatusOK {
			t.Fatalf("%s status = %d: %s", q, code, body)
		}
		if !strings.Contains(string(body), `"rows": []`) {
			t.Errorf("%s: rows should encode as []:\n%s", q, body)
		}
	}
	// A real result's per-row arrays are present and non-null.
	_, body := get(t, srv, "/query?q="+urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm"))
	var resp struct {
		Rows []struct {
			Groups []string   `json:"groups"`
			Values []*float64 `json:"values"`
			CFs    []string   `json:"cfs"`
			Colors []string   `json:"colors"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Rows {
		if r.Groups == nil || r.Values == nil || r.CFs == nil || r.Colors == nil {
			t.Fatalf("row %d has a null array: %+v", i, r)
		}
	}
}

// TestQueryCancelledContext asserts the cancellation criterion at the
// HTTP layer: a request whose context is already cancelled returns
// promptly with 499 (client closed request).
func TestQueryCancelledContext(t *testing.T) {
	sch, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	h := New(sch, WithLogger(quietLogger())).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/query?q="+
		urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm"), nil).WithContext(ctx)
	rr := httptest.NewRecorder()
	done := make(chan struct{})
	go func() { h.ServeHTTP(rr, req); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled query did not return promptly")
	}
	if rr.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", rr.Code, StatusClientClosedRequest, rr.Body)
	}
	if !strings.Contains(rr.Body.String(), "cancel") {
		t.Errorf("body should report cancellation: %s", rr.Body)
	}
}

// TestQueryTimeout asserts the per-request deadline flavour: an
// expired deadline maps to 504.
func TestQueryTimeout(t *testing.T) {
	srv := testServer(t, WithQueryTimeout(time.Nanosecond))
	code, body := get(t, srv, "/query?q="+
		urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm"))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", code, body)
	}
}

// TestEvolveFailureEnvelope asserts the partial-application report: a
// batch failing mid-way returns 422 with applied/failedAt/failedOp and
// leaves the served schema untouched (copy-on-write).
func TestEvolveFailureEnvelope(t *testing.T) {
	srv := testServer(t, WithEvolution())
	_, before := get(t, srv, "/schema")

	script := "EXCLUDE Org Dpt.Brian_id AT 01/2004\nEXCLUDE Org nobody AT 01/2004\n"
	resp, err := http.Post(srv.URL+"/evolve", "text/plain", strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	var envelope struct {
		Error    string `json:"error"`
		Applied  int    `json:"applied"`
		FailedAt int    `json:"failedAt"`
		FailedOp string `json:"failedOp"`
		Retained bool   `json:"retained"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Applied != 1 || envelope.FailedAt != 1 || envelope.Retained {
		t.Errorf("envelope = %+v, want applied=1 failedAt=1 retained=false", envelope)
	}
	if !strings.Contains(envelope.FailedOp, "nobody") {
		t.Errorf("failedOp = %q, want the failing operator description", envelope.FailedOp)
	}

	// Copy-on-write: the served schema did not change at all — not even
	// the successfully applied prefix.
	_, after := get(t, srv, "/schema")
	if string(before) != string(after) {
		t.Error("failed evolution batch mutated the served schema")
	}
}

// TestQueryVsEvolveRace drives queries and evolutions concurrently;
// meaningful under -race. Queries must keep returning consistent
// results from their snapshot while evolutions swap the schema.
func TestQueryVsEvolveRace(t *testing.T) {
	srv := testServer(t, WithEvolution())
	q := "/query?q=" + urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if code, body := get(t, srv, q); code != http.StatusOK {
					t.Errorf("query = %d: %s", code, body)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		scripts := []string{
			"EXCLUDE Org Dpt.Brian_id AT 01/2004\n",
			"EXCLUDE Org Dpt.Smith_id AT 01/2005\n",
			"EXCLUDE Org nobody AT 01/2004\n", // fails; must not disturb readers
		}
		for _, sc := range scripts {
			resp, err := http.Post(srv.URL+"/evolve", "text/plain", strings.NewReader(sc))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				t.Errorf("evolve = %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
}

// TestPprofGate asserts /debug/pprof/ is mounted only with WithPprof.
func TestPprofGate(t *testing.T) {
	off := testServer(t)
	if code, _ := get(t, off, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof without WithPprof = %d, want 404", code)
	}
	on := testServer(t, WithPprof())
	if code, _ := get(t, on, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof with WithPprof = %d, want 200", code)
	}
}

// TestModesUnchangedByConcurrentReaders pins snapshot consistency: a
// reader that grabbed its schema before an evolution keeps serving the
// old structure for the rest of its request.
func TestSnapshotServesConsistentSchema(t *testing.T) {
	sch, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	s := New(sch, WithLogger(quietLogger()), WithEvolution())
	snap := s.snapshot()
	if snap != sch {
		t.Fatal("snapshot should be the served schema pointer")
	}
	// Swap in a clone as an evolution would; the old snapshot still
	// answers queries against the old structure.
	s.mu.Lock()
	s.schema = sch.Clone()
	s.mu.Unlock()
	if s.snapshot() == snap {
		t.Fatal("snapshot should observe the swap")
	}
	if _, err := snap.Execute(core.Query{
		GroupBy: []core.GroupBy{{Dim: "Org", Level: "Division"}},
		Grain:   core.GrainYear,
		Mode:    core.TCM(),
	}); err != nil {
		t.Fatalf("old snapshot no longer queryable: %v", err)
	}
}
