package workload

import (
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

func TestGenerateDefaults(t *testing.T) {
	w, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Schema
	if err := s.Validate(); err != nil {
		t.Fatalf("generated schema invalid: %v", err)
	}
	if s.Facts().Len() == 0 {
		t.Error("no facts generated")
	}
	if len(s.StructureVersions()) < 2 {
		t.Errorf("structure versions = %d; evolutions should create more than one", len(s.StructureVersions()))
	}
	total := 0
	for _, n := range w.Events {
		total += n
	}
	if total == 0 {
		t.Error("no evolution events fired")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Seed: 42, Years: 5, EvolutionsPerYear: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 42, Years: 5, EvolutionsPerYear: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema.Facts().Len() != b.Schema.Facts().Len() {
		t.Error("same seed must generate identical fact counts")
	}
	if len(a.Applier.Log()) != len(b.Applier.Log()) {
		t.Error("same seed must generate identical evolution logs")
	}
	for i, e := range a.Applier.Log() {
		if b.Applier.Log()[i].Description != e.Description {
			t.Fatalf("log diverges at %d: %q vs %q", i, e.Description, b.Applier.Log()[i].Description)
		}
	}
	c, err := Generate(Config{Seed: 43, Years: 5, EvolutionsPerYear: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Applier.Log()) == len(a.Applier.Log()) && c.Schema.Facts().Len() == a.Schema.Facts().Len() {
		t.Log("different seeds produced same shape (possible but unlikely); not failing")
	}
}

// TestGeneratedSchemaAnswersAllModes: every generated mode must be
// queryable without error, and mass must be conserved across modes for
// the generated mapping functions (identity backward, weights summing
// to 1 forward).
func TestGeneratedSchemaAnswersAllModes(t *testing.T) {
	w := MustGenerate(Config{Seed: 7, Years: 4, EvolutionsPerYear: 2, Departments: 8})
	s := w.Schema
	for _, mode := range s.Modes() {
		res, err := s.Execute(core.Query{
			GroupBy: []core.GroupBy{{Dim: OrgDim, Level: "Division"}},
			Grain:   core.GrainYear,
			Mode:    mode,
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Len() == 0 {
			t.Errorf("mode %v: empty result", mode)
		}
	}
}

func TestGenerateScales(t *testing.T) {
	w := MustGenerate(Config{Seed: 3, Departments: 40, Years: 8, EvolutionsPerYear: 4, FactsPerYear: 2})
	s := w.Schema
	if s.Facts().Len() < 300 {
		t.Errorf("large workload facts = %d", s.Facts().Len())
	}
	svs := s.StructureVersions()
	if len(svs) < 4 {
		t.Errorf("large workload versions = %d", len(svs))
	}
	// Structure versions partition history.
	for i := 1; i < len(svs); i++ {
		if !svs[i-1].Valid.Adjacent(svs[i].Valid) {
			t.Fatal("versions must be adjacent")
		}
	}
	if svs[0].Valid.Start != temporal.Year(StartYear) {
		t.Errorf("history starts at %v", svs[0].Valid.Start)
	}
}

// TestGenerateMultiMeasure exercises the two-measure path (the §5.2
// Turnover/Profit prototype shape) end to end.
func TestGenerateMultiMeasure(t *testing.T) {
	w := MustGenerate(Config{Seed: 21, Measures: 2, Years: 4, EvolutionsPerYear: 2})
	s := w.Schema
	if len(s.Measures()) != 2 {
		t.Fatalf("measures = %v", s.Measures())
	}
	for _, mode := range s.Modes() {
		res, err := s.Execute(core.Query{
			GroupBy: []core.GroupBy{{Dim: OrgDim, Level: "Department"}},
			Grain:   core.GrainYear,
			Mode:    mode,
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		for _, r := range res.Rows() {
			if len(r.Values) != 2 || len(r.CFs) != 2 {
				t.Fatalf("row arity = %d/%d", len(r.Values), len(r.CFs))
			}
		}
	}
}
