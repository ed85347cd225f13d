package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/obs"
	"mvolap/internal/schemaio"
)

// newWarmServer returns the Server itself alongside its test listener,
// so tests can reach through to the served schema.
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

// modeStatements are the questions the swap tests ask in every mode.
func modeStatements(modes []string) []string {
	var out []string
	for _, m := range modes {
		out = append(out,
			"SELECT Amount BY Org.Division, TIME.YEAR MODE "+m,
			"SELECT Amount BY Org.Department, TIME.ALL MODE "+m)
	}
	return out
}

// warmAllModes queries every mode once, so every rollup and resolution
// table a later answer could wrongly keep exists.
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

// requireAnswersLikeCold asks every mode of the served schema the mode
// statements and requires the answers a server over the same warehouse,
// written out and read back — sharing no derived state — gives, byte
// for byte. Serving them builds no mode.
func requireAnswersLikeCold(t *testing.T, s *Server, srv *httptest.Server) {
	t.Helper()
	var buf bytes.Buffer
	if err := schemaio.Write(&buf, s.snapshot()); err != nil {
		t.Fatal(err)
	}
	cold, err := schemaio.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	modes := listModes(t, srv)
	for _, stmt := range modeStatements(modes) {
		code, body := get(t, srv, "/query?q="+urlEncode(stmt))
		if got, want := append([]byte(fmt.Sprintf("%d\n", code)), body...), serveQuery(cold, stmt); !bytes.Equal(got, want) {
			t.Errorf("%q answers\n%s\nwant, as a cold server does:\n%s", stmt, got, want)
		}
	}
}

type mutateResponse struct {
	RetainedModes []string      `json:"retainedModes"`
	EvictedModes  []string      `json:"evictedModes"`
	DeltaApplies  int           `json:"deltaApplies"`
	Trace         *obs.SpanNode `json:"trace"`
}

// requireNothingWarmed checks a write envelope's mode keys: a mode has
// no warm state, so a write retains, evicts and folds into none.
func requireNothingWarmed(t *testing.T, resp mutateResponse) {
	t.Helper()
	if resp.RetainedModes == nil || len(resp.RetainedModes) != 0 || resp.EvictedModes == nil || len(resp.EvictedModes) != 0 || resp.DeltaApplies != 0 {
		t.Errorf("envelope retained %v, evicted %v, deltaApplies %d; want [], [] and 0", resp.RetainedModes, resp.EvictedModes, resp.DeltaApplies)
	}
}

// TestFactsWarmSwap is the acceptance test at the serving tier: after
// an insert-only /facts swap, every mode answers on the new schema like
// a cold server — the new facts included — without a single
// materialization and with nothing carried across the swap.
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
	requireNothingWarmed(t, resp)
	if resp.Trace == nil || resp.Trace.Find("mvft_delta") == nil {
		t.Fatalf("trace=1 response missing mvft_delta span: %s", body)
	}
	// Key-index maintenance is reported on the span; a two-fact batch
	// on a cold-built warehouse seals and merges nothing.
	if a := resp.Trace.Find("mvft_delta").Attrs; a["sealed"] != 0.0 || a["merged"] != 0.0 || a["delta_facts"] != 2.0 {
		t.Errorf("mvft_delta attrs = %v, want 2 delta facts, sealed 0 and merged 0", a)
	}

	requireAnswersLikeCold(t, s, srv)
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
		t.Errorf("new fact not visible in tcm: %s", body)
	}
}

// TestEvolveWarmSwap: an EXCLUDE that splits only the tail of history
// sweeps the one dimension it mutated, and every mode of the new
// partition answers like a cold server.
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
	requireNothingWarmed(t, resp)
	requireAnswersLikeCold(t, s, srv)
	_, metrics := get(t, srv, "/metrics")
	for _, name := range []string{
		`mvolap_structure_versions_recomputed_total{dim="Org"}`,
		"mvolap_structure_versions_seconds_count",
		`mvolap_rollup_tables_built_total{dim="Org"}`,
		`mvolap_resolve_tables_built_total{dim="Org"}`,
	} {
		if !strings.Contains(string(metrics), "\n"+name+" ") {
			t.Errorf("/metrics after an evolve is missing %s", name)
		}
	}
	if got := listModes(t, srv); len(got) != len(modes)+1 {
		t.Errorf("modes after the evolve = %v, want one more than %v", got, modes)
	}
}

// TestAssociateWarmSwap: a mapping change reaches every version mode at
// once — each resolves through the new graph — and tcm, which reads no
// mapping, answers as before.
func TestAssociateWarmSwap(t *testing.T) {
	s, srv := newWarmServer(t)
	modes := listModes(t, srv)
	warmAllModes(t, srv, modes)
	tcm := "/query?q=" + urlEncode("SELECT Amount BY Org.Department, TIME.YEAR MODE tcm")
	_, before := get(t, srv, tcm)

	code, body := post(t, srv, "/evolve",
		"ASSOCIATE Dpt.Smith_id Dpt.Brian_id FORWARD - am BACKWARD - am\n")
	if code != http.StatusOK {
		t.Fatalf("evolve = %d: %s", code, body)
	}
	var resp mutateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	requireNothingWarmed(t, resp)
	requireAnswersLikeCold(t, s, srv)
	if _, after := get(t, srv, tcm); !bytes.Equal(after, before) {
		t.Errorf("tcm answer changed with a mapping:\n%s\nwant\n%s", after, before)
	}
}

// TestModesRenderedOncePerGeneration: GET /modes renders its page once
// per published generation — a second GET on the same generation serves
// the very same bytes — and an evolve, which changes the structure
// versions, changes them.
func TestModesRenderedOncePerGeneration(t *testing.T) {
	s, srv := newWarmServer(t)
	_, first := get(t, srv, "/modes")
	page := s.modes.Load()
	_, second := get(t, srv, "/modes")
	if !bytes.Equal(first, second) || s.modes.Load() != page {
		t.Fatalf("two GETs on one generation rendered twice or differ:\n%s\n%s", first, second)
	}
	if code, body := post(t, srv, "/facts", `[{"coords":["Dpt.Bill_id"],"time":"2004","values":[70]}]`); code != http.StatusOK {
		t.Fatalf("facts = %d: %s", code, body)
	}
	if _, body := get(t, srv, "/modes"); !bytes.Equal(body, first) {
		t.Errorf("a fact batch changed /modes:\n%s\nwant\n%s", body, first)
	}
	if code, body := post(t, srv, "/evolve", "EXCLUDE Org Dpt.Brian_id AT 01/2004\n"); code != http.StatusOK {
		t.Fatalf("evolve = %d: %s", code, body)
	}
	_, third := get(t, srv, "/modes")
	if bytes.Equal(third, first) {
		t.Fatalf("an evolve that adds a structure version left /modes as it was:\n%s", third)
	}
	if _, again := get(t, srv, "/modes"); !bytes.Equal(again, third) {
		t.Errorf("two GETs on the evolved generation differ:\n%s\n%s", third, again)
	}
}
