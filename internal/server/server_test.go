package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mvolap/internal/casestudy"
)

// quietLogger keeps the access log out of test output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	s, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{WithLogger(quietLogger())}, opts...)
	srv := httptest.NewServer(New(s, opts...).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestIndexPage(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(string(body), "<form action=\"/query\"") {
		t.Fatalf("index = %d %q", code, body)
	}
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv, "/query?q="+
		urlEncode("SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003 MODE V2"))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var resp struct {
		Rows []struct {
			Time   string     `json:"time"`
			Groups []string   `json:"groups"`
			Values []*float64 `json:"values"`
			CFs    []string   `json:"cfs"`
			Colors []string   `json:"colors"`
		} `json:"rows"`
		Mode    string  `json:"mode"`
		Quality float64 `json:"quality"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if resp.Mode != "V2" || resp.Quality >= 1 {
		t.Errorf("mode=%s quality=%v", resp.Mode, resp.Quality)
	}
	found := false
	for _, r := range resp.Rows {
		if r.Time == "2003" && r.Groups[0] == "Dpt.Jones" {
			found = true
			if r.Values[0] == nil || *r.Values[0] != 200 || r.CFs[0] != "em" || r.Colors[0] != "green" {
				t.Errorf("merged row = %+v", r)
			}
		}
	}
	if !found {
		t.Error("Table 9 row missing")
	}
}

func TestQueryErrors(t *testing.T) {
	srv := testServer(t)
	if code, _ := get(t, srv, "/query"); code != http.StatusBadRequest {
		t.Errorf("missing q = %d", code)
	}
	if code, _ := get(t, srv, "/query?q=BOGUS"); code != http.StatusBadRequest {
		t.Errorf("bad statement = %d", code)
	}
	// A mistyped level is the client's error, not 200 with "rows": [].
	code, body := get(t, srv, "/query?q="+urlEncode("SELECT * BY Org.Nonexistent, TIME.YEAR"))
	if code != http.StatusBadRequest || !strings.Contains(string(body), `unknown level \"Nonexistent\" in dimension \"Org\"`) {
		t.Errorf("unknown level = %d: %s", code, body)
	}
}

func TestModesEndpoint(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv, "/modes")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var modes []struct {
		Mode  string `json:"mode"`
		Valid string `json:"valid"`
	}
	if err := json.Unmarshal(body, &modes); err != nil {
		t.Fatal(err)
	}
	if len(modes) != 4 || modes[0].Mode != "tcm" || modes[3].Valid != "[01/2003 ; Now]" {
		t.Errorf("modes = %+v", modes)
	}
}

func TestSchemaEndpoint(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv, "/schema")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var resp struct {
		Name       string `json:"name"`
		Facts      int    `json:"facts"`
		Dimensions []struct {
			ID       string `json:"id"`
			Versions []struct {
				IsLeaf bool `json:"isLeaf"`
			} `json:"versions"`
		} `json:"dimensions"`
		Mappings []struct {
			From string `json:"from"`
		} `json:"mappings"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Name != "institution" || resp.Facts != 10 {
		t.Errorf("schema = %+v", resp)
	}
	if len(resp.Dimensions) != 1 || len(resp.Dimensions[0].Versions) != 7 {
		t.Errorf("dimensions = %+v", resp.Dimensions)
	}
	if len(resp.Mappings) != 2 || resp.Mappings[0].From != "Dpt.Jones" {
		t.Errorf("mappings = %+v", resp.Mappings)
	}
}

func TestEvolveDisabledByDefault(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/evolve", "text/plain",
		strings.NewReader("EXCLUDE Org Dpt.Brian_id AT 01/2004\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("status = %d, want 403", resp.StatusCode)
	}
}

func TestEvolveEndpoint(t *testing.T) {
	srv := testServer(t, WithEvolution())
	resp, err := http.Post(srv.URL+"/evolve", "text/plain",
		strings.NewReader("EXCLUDE Org Dpt.Brian_id AT 01/2004\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// The new boundary creates a fourth structure version, visible in
	// subsequent queries.
	code, body := get(t, srv, "/modes")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	var modes []struct {
		Mode string `json:"mode"`
	}
	if err := json.Unmarshal(body, &modes); err != nil {
		t.Fatal(err)
	}
	if len(modes) != 5 {
		t.Errorf("modes after evolution = %d, want 5", len(modes))
	}
	// Bad scripts are rejected.
	resp, err = http.Post(srv.URL+"/evolve", "text/plain", strings.NewReader("FROBNICATE\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad script status = %d", resp.StatusCode)
	}
	// Scripts that parse but cannot apply are rejected too.
	resp, err = http.Post(srv.URL+"/evolve", "text/plain", strings.NewReader("EXCLUDE Org nobody AT 01/2004\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unapplicable script status = %d", resp.StatusCode)
	}
}

func TestExplainOverHTTP(t *testing.T) {
	srv := testServer(t)
	code, body := get(t, srv, "/query?q="+urlEncode("EXPLAIN Dpt.Jones_id AT 2003 MODE V2"))
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var resp struct {
		Lineage string `json:"lineage"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Lineage, "Dpt.Bill") {
		t.Errorf("lineage = %q", resp.Lineage)
	}
}

// TestConcurrentHTTPQueries exercises the RW locking under parallel
// readers; meaningful under -race.
func TestConcurrentHTTPQueries(t *testing.T) {
	srv := testServer(t, WithEvolution())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				code, _ := get(t, srv, "/query?q="+urlEncode("SELECT Amount BY Org.Division, TIME.YEAR MODE tcm"))
				if code != http.StatusOK {
					t.Error("query failed")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func urlEncode(s string) string {
	r := strings.NewReplacer(" ", "%20", ",", "%2C", "&", "%26", "'", "%27")
	return r.Replace(s)
}
