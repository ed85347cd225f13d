package mvolap_test

// Integration test: one synthetic evolving warehouse driven through
// every tier of the Figure-1 architecture — generation, JSON
// persistence round trip, temporal and multiversion warehouses (both
// storage policies), cube navigation, TQL, quality ranking, and the
// HTTP server — with cross-tier consistency checks.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/cube"
	"mvolap/internal/quality"
	"mvolap/internal/schemaio"
	"mvolap/internal/server"
	"mvolap/internal/tql"
	"mvolap/internal/warehouse"
	"mvolap/internal/workload"
)

func TestEndToEndSyntheticWarehouse(t *testing.T) {
	w := workload.MustGenerate(workload.Config{
		Seed: 99, Departments: 15, Years: 6, EvolutionsPerYear: 3, FactsPerYear: 2,
	})
	s := w.Schema
	if err := s.Validate(); err != nil {
		t.Fatalf("generated schema invalid: %v", err)
	}

	// 1. Persistence round trip preserves query results.
	var buf bytes.Buffer
	if err := schemaio.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	restored, err := schemaio.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{
		GroupBy: []core.GroupBy{{Dim: workload.OrgDim, Level: "Division"}},
		Grain:   core.GrainYear,
		Mode:    core.TCM(),
	}
	resA, err := s.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := restored.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	rowsA, rowsB := resA.Rows(), resB.Rows()
	if len(rowsA) != len(rowsB) {
		t.Fatalf("round trip changed row count: %d vs %d", len(rowsA), len(rowsB))
	}
	for i := range rowsA {
		if rowsA[i].Values[0] != rowsB[i].Values[0] {
			t.Fatalf("round trip changed values at row %d", i)
		}
	}

	// 2. Warehouses: delta reconstruction equals full per mode, and the
	// temporal DW fact count matches the schema.
	tdw, err := warehouse.BuildTemporal(s, w.Applier.Log())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := tdw.Query("SELECT COUNT(*) AS n FROM fact")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Rows[0][0] != int64(s.Facts().Len()) {
		t.Errorf("temporal DW facts = %v, schema has %d", rel.Rows[0][0], s.Facts().Len())
	}
	full, err := warehouse.BuildMultiVersion(s, warehouse.Full)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := warehouse.BuildMultiVersion(s, warehouse.Delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range s.Modes() {
		fr, err := full.FactRows(mode.String())
		if err != nil {
			t.Fatal(err)
		}
		dr, err := delta.FactRows(mode.String())
		if err != nil {
			t.Fatal(err)
		}
		if len(fr.Rows) != len(dr.Rows) {
			t.Errorf("mode %s: full %d rows, delta reconstructs %d", mode, len(fr.Rows), len(dr.Rows))
		}
	}
	if delta.Stats.StoredRows > full.Stats.StoredRows {
		t.Error("delta must not store more than full")
	}

	// 3. Cube navigation agrees with direct queries.
	c, err := cube.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	view, err := c.NewView()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := view.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.RowLabels) == 0 || len(grid.ColLabels) == 0 {
		t.Fatal("empty cube grid")
	}

	// 4. TQL and quality ranking run in every mode.
	out, err := tql.Run(s, "QUALITY SELECT m0 BY Org.Department, TIME.YEAR")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Ranking) != len(s.Modes()) {
		t.Errorf("ranking covers %d of %d modes", len(out.Ranking), len(s.Modes()))
	}
	if out.Ranking[0].Quality < out.Ranking[len(out.Ranking)-1].Quality {
		t.Error("ranking not descending")
	}
	best, err := s.Execute(core.Query{
		Measures: []string{"m0"},
		GroupBy:  []core.GroupBy{{Dim: workload.OrgDim, Level: "Department"}},
		Grain:    core.GrainYear,
		Mode:     out.Ranking[0].Mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	if q := quality.Of(best, quality.DefaultWeights()); q != out.Ranking[0].Quality {
		t.Errorf("top-ranked mode %s: Q = %v, a direct Execute in it gives %v", out.Ranking[0].Mode, out.Ranking[0].Quality, q)
	}

	// 5. The HTTP tier serves the same numbers.
	srv := httptest.NewServer(server.New(s).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?q=" + strings.ReplaceAll(
		"SELECT m0 BY Org.Division, TIME.YEAR MODE tcm", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("http status %d", resp.StatusCode)
	}
	var httpRes struct {
		Rows []struct {
			Time   string     `json:"time"`
			Groups []string   `json:"groups"`
			Values []*float64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&httpRes); err != nil {
		t.Fatal(err)
	}
	if len(httpRes.Rows) != len(rowsA) {
		t.Fatalf("http rows = %d, direct rows = %d", len(httpRes.Rows), len(rowsA))
	}
	for i, hr := range httpRes.Rows {
		key := fmt.Sprintf("%s/%s", hr.Time, hr.Groups[0])
		direct := fmt.Sprintf("%s/%s", rowsA[i].TimeKey, rowsA[i].Groups[0])
		if key != direct {
			t.Errorf("row %d: http %s vs direct %s", i, key, direct)
		}
		if hr.Values[0] == nil || *hr.Values[0] != rowsA[i].Values[0] {
			t.Errorf("row %d: value mismatch", i)
		}
	}
}

// TestSoakLargeWarehouse pushes a larger synthetic warehouse through
// the core invariants. Skipped under -short.
func TestSoakLargeWarehouse(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	w := workload.MustGenerate(workload.Config{
		Seed: 7, Departments: 60, Years: 12, EvolutionsPerYear: 5, FactsPerYear: 4,
	})
	s := w.Schema
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	svs := s.StructureVersions()
	if len(svs) < 6 {
		t.Fatalf("soak workload produced only %d versions", len(svs))
	}
	// Every mode presents; presented + dropped accounts for sources.
	for _, mode := range s.Modes() {
		presented := 0
		dropped, err := s.Present(mode, func(mf *core.MappedFact) bool {
			presented += mf.Sources
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if presented+dropped < s.Facts().Len() {
			t.Fatalf("mode %s: %d presented + %d dropped < %d sources",
				mode, presented, dropped, s.Facts().Len())
		}
	}
	// Query engine handles the full sweep of modes and grains.
	for _, grain := range []core.TimeGrain{core.GrainAll, core.GrainYear, core.GrainQuarter, core.GrainMonth} {
		res, err := s.Execute(core.Query{
			GroupBy: []core.GroupBy{{Dim: workload.OrgDim, Level: "Division"}},
			Grain:   grain,
			Mode:    core.InVersion(svs[len(svs)-1]),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() == 0 {
			t.Fatalf("grain %v: empty result", grain)
		}
	}
}
