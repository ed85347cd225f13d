package casestudy

import (
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

func TestNewBare(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Facts().Len() != 0 {
		t.Error("bare fixture must have no facts")
	}
	if len(s.Mappings()) != 0 {
		t.Error("bare fixture must have no mappings")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	d := s.Dimension(OrgDim)
	if d == nil || len(d.Versions()) != 7 {
		t.Fatalf("dimension = %v", d)
	}
}

func TestNewFull(t *testing.T) {
	s, err := New(Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Facts().Len() != 10 {
		t.Errorf("facts = %d", s.Facts().Len())
	}
	if len(s.Mappings()) != 2 {
		t.Errorf("mappings = %d", len(s.Mappings()))
	}
	if got := len(s.StructureVersions()); got != 3 {
		t.Errorf("structure versions = %d", got)
	}
	// The measure is a single Sum.
	if ms := s.Measures(); len(ms) != 1 || ms[0].Name != AmountMeasure || ms[0].Agg != core.Sum {
		t.Errorf("measures = %v", ms)
	}
}

// TestNewFullSignatures pins the structural signatures of the paper's
// three structure versions. Warm snapshots store them and a restarted
// process compares them, so they must come out the same in every
// process: a hash seeded per process (hash/maphash) fails here.
func TestNewFullSignatures(t *testing.T) {
	s := MustNew(Config{WithFacts: true, WithSplitMappings: true})
	want := []string{
		"V1 b841c7a59536afb769e219dffe068324",
		"V2 1a13ae3a108093617cb54288e8242a2f",
		"V3 5f11abac8b6c71c76a7b212bce64d461",
	}
	svs := s.StructureVersions()
	if len(svs) != len(want) {
		t.Fatalf("%d structure versions, want %d", len(svs), len(want))
	}
	for i, v := range svs {
		if got := v.ID + " " + v.Signature(); got != want[i] {
			t.Errorf("signature %q, want %q", got, want[i])
		}
	}
}

func TestTable3Fixture(t *testing.T) {
	rows := Table3()
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	total := 0.0
	byYear := map[int]float64{}
	for _, r := range rows {
		total += r.Amount
		byYear[r.Time.YearOf()] += r.Amount
	}
	if total != 850 {
		t.Errorf("total = %v", total)
	}
	if byYear[2001] != 250 || byYear[2002] != 250 || byYear[2003] != 350 {
		t.Errorf("per-year totals = %v", byYear)
	}
	// Facts are keyed at January of each year.
	if rows[0].Time != temporal.Year(2001) {
		t.Errorf("first fact time = %v", rows[0].Time)
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	// MustNew with a valid config does not panic.
	s := MustNew(Config{WithFacts: true})
	if s == nil {
		t.Fatal("nil schema")
	}
}
