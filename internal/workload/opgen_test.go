package workload

import (
	"context"
	"strings"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/quality"
	"mvolap/internal/temporal"
	"mvolap/internal/tql"
)

func testSurface(t *testing.T) (*Workload, Surface) {
	t.Helper()
	w, err := Generate(Config{Seed: 7, Years: 4, EvolutionsPerYear: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := SurfaceOf(w.Schema)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return w, s
}

func TestSurfaceOf(t *testing.T) {
	_, s := testSurface(t)
	if s.Dim != string(OrgDim) {
		t.Fatalf("dim = %q", s.Dim)
	}
	if s.FirstYear != StartYear {
		t.Fatalf("first year = %d, want %d", s.FirstYear, StartYear)
	}
	if s.LastYear < s.FirstYear || s.LastYear > StartYear+4 {
		t.Fatalf("last year = %d out of range", s.LastYear)
	}
	if s.LeafLevel != "Department" {
		t.Fatalf("leaf level = %q", s.LeafLevel)
	}
	if len(s.GroupLevels) != 2 { // Division, Department
		t.Fatalf("group levels = %v", s.GroupLevels)
	}
	for _, leaf := range s.DimLeaves[0] {
		if leaf.Since == temporal.Origin {
			t.Fatalf("leaf %s has no validity start", leaf.ID)
		}
	}
}

// TestOpGenDeterministic: two generators with the same seed and
// surface emit identical streams; a different seed diverges.
func TestOpGenDeterministic(t *testing.T) {
	_, s := testSurface(t)
	a, b := NewOpGen(42, s, ""), NewOpGen(42, s, "")
	c := NewOpGen(43, s, "")
	var diverged bool
	for i := 0; i < 200; i++ {
		qa, qb, qc := a.Query(), b.Query(), c.Query()
		if qa != qb {
			t.Fatalf("query %d diverged under the same seed:\n%s\n%s", i, qa, qb)
		}
		if qa != qc {
			diverged = true
		}
		ea, eb := a.EvolveScript(), b.EvolveScript()
		if ea != eb {
			t.Fatalf("evolve %d diverged under the same seed:\n%s\n%s", i, ea, eb)
		}
		fa, fb := a.FactBatch(3), b.FactBatch(3)
		for j := range fa {
			if fa[j].Time != fb[j].Time || fa[j].Coords[0] != fb[j].Coords[0] {
				t.Fatalf("fact %d/%d diverged under the same seed", i, j)
			}
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 generated identical query streams")
	}
}

// TestOpGenOpsApply: everything the generator emits is accepted by the
// engine it was generated for — queries parse and run, evolution
// scripts apply, and facts land on valid coordinates.
func TestOpGenOpsApply(t *testing.T) {
	w, s := testSurface(t)
	g := NewOpGen(1, s, "t")
	applier := w.Applier
	for i := 0; i < 50; i++ {
		q := g.Query()
		if _, err := tql.RunCachedContext(context.Background(), w.Schema, q, quality.DefaultWeights(), nil); err != nil {
			t.Fatalf("query %d %q: %v", i, q, err)
		}
		script := g.EvolveScript()
		ops, err := evolution.ParseScript(strings.NewReader(script), len(s.Measures))
		if err != nil {
			t.Fatalf("script %d %q: %v", i, script, err)
		}
		if err := applier.Apply(ops...); err != nil {
			t.Fatalf("apply %d %q: %v", i, script, err)
		}
		for _, f := range g.FactBatch(4) {
			at, err := temporal.ParseInstant(f.Time)
			if err != nil {
				t.Fatalf("fact time %q: %v", f.Time, err)
			}
			coords := make(core.Coords, len(f.Coords))
			for k, c := range f.Coords {
				coords[k] = core.MVID(c)
			}
			if err := w.Schema.InsertFact(coords, at, f.Values...); err != nil {
				t.Fatalf("fact %d: %v", i, err)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Divisions: -1},
		{Departments: -2},
		{Years: -1},
		{EvolutionsPerYear: -3},
		{FactsPerYear: -1},
		{Measures: -5},
	}
	for _, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("Generate(%+v) accepted a negative field", cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if _, err := Generate(Config{Seed: 1}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}
