package tql_test

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"mvolap/internal/server"
	"mvolap/internal/tql"
	"mvolap/internal/workload"
)

// TestPropertyPlanKeyServesOneBody is the soundness of the plan key as
// a cache key: statements whose plans share a key must be answered with
// the same bytes. It plans 500 OpGen statements on the evolve_mix
// warehouse and, for every key two or more distinct statements share,
// compares their /query bodies from a server without a result cache.
func TestPropertyPlanKeyServesOneBody(t *testing.T) {
	w := workload.MustGenerate(workload.Config{
		Seed: 11, Divisions: 8, Departments: 500, Years: 6,
		EvolutionsPerYear: 20, FactsPerYear: 12, Measures: 2,
	})
	gen := workload.NewOpGen(1, workload.SurfaceOf(w.Schema), "")
	classes := map[string][]string{}
	var order []string
	for i := 0; i < 500; i++ {
		stmt := gen.Query()
		st, err := tql.Parse(stmt)
		if err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		q, err := st.Plan(w.Schema)
		if err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		k := q.Key()
		if _, ok := classes[k]; !ok {
			order = append(order, k)
		}
		if !slices.Contains(classes[k], stmt) {
			classes[k] = append(classes[k], stmt)
		}
	}
	h := server.New(w.Schema, server.WithQueryCache(0), server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))).Handler()
	body := func(stmt string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(stmt), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: status %d: %s", stmt, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	shared := 0
	for _, k := range order {
		stmts := classes[k]
		if len(stmts) < 2 {
			continue
		}
		shared++
		want := body(stmts[0])
		for _, stmt := range stmts[1:] {
			if !bytes.Equal(body(stmt), want) {
				t.Errorf("%q and %q share a plan key but answer differently", stmts[0], stmt)
			}
		}
	}
	t.Logf("%d plan keys over 500 statements, %d shared by distinct statements", len(order), shared)
	if shared == 0 {
		t.Error("no two statements share a plan key: the property checked nothing")
	}
}
