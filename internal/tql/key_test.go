package tql

import (
	"context"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/quality"
	"mvolap/internal/temporal"
)

// TestPlanKeySharedEntries: statements that plan alike share one
// result-cache entry, whatever their spelling — the plan, not the text,
// is the key. For each directed pair the first run fills the entry and
// the second hits it.
func TestPlanKeySharedEntries(t *testing.T) {
	const q = "SELECT Amount BY Org.Division, TIME.YEAR"
	pairs := []struct{ name, first, second string }{
		{"keyword case", q + " MODE tcm", "select Amount by Org.Division, time.year mode TCM"},
		{"quoting", q + " WHERE Org IN Sales", "SELECT 'Amount' BY 'Org'.'Division', TIME.YEAR WHERE 'Org' IN 'Sales'"},
		{"year against month", q + " WHERE TIME BETWEEN 2002 AND 2003 MODE VERSION AT 2003",
			q + " WHERE TIME BETWEEN 01/2002 AND 12/2003 MODE VERSION AT 01/2003"},
		{"filter order and duplicate members", q + " WHERE Org IN Sales, R&D, Sales AND Org IN Dpt.Smith",
			q + " WHERE Org IN 'Dpt.Smith' AND Org IN R&D, Sales"},
		{"TIME axis position", q, "SELECT Amount BY TIME.YEAR, Org.Division"},
		{"MODE tcm against no MODE clause", q + " MODE tcm", q},
		{"two instants inside one version", q + " MODE VERSION AT 2003", q + " MODE VERSION AT 06/2004"},
		{"MODE Vi against VERSION AT", q + " MODE V3", q + " MODE VERSION AT 2003"},
	}
	s := caseSchema(t)
	w := quality.DefaultWeights()
	for _, p := range pairs {
		cache := NewResultCache(16)
		first, err := RunCachedContext(context.Background(), s, p.first, w, cache)
		if err != nil {
			t.Fatalf("%s: %q: %v", p.name, p.first, err)
		}
		hits := metCacheHits.Value()
		second, err := RunCachedContext(context.Background(), s, p.second, w, cache)
		if err != nil {
			t.Fatalf("%s: %q: %v", p.name, p.second, err)
		}
		if n := cache.Len(); n != 1 {
			t.Errorf("%s: %d cache entries, want 1", p.name, n)
		}
		if second != first || metCacheHits.Value() != hits+1 {
			t.Errorf("%s: %q missed the entry of %q", p.name, p.second, p.first)
		}
	}

	// QUALITY fills one entry per mode, and a SELECT in one of them hits.
	cache := NewResultCache(16)
	if _, err := RunCachedContext(context.Background(), s, "QUALITY "+q, w, cache); err != nil {
		t.Fatal(err)
	}
	if n, modes := cache.Len(), len(s.Modes()); n != modes {
		t.Fatalf("QUALITY left %d cache entries, want one per mode (%d)", n, modes)
	}
	hits := metCacheHits.Value()
	if _, err := RunCachedContext(context.Background(), s, q+" MODE V2", w, cache); err != nil {
		t.Fatal(err)
	}
	if metCacheHits.Value() != hits+1 || cache.Len() != len(s.Modes()) {
		t.Error("SELECT … MODE V2 after QUALITY SELECT … missed the ranking's entry")
	}
}

// TestPlanKeyInjective: queries that differ in one field each — names
// that contain the key's own separators included — get distinct keys.
func TestPlanKeyInjective(t *testing.T) {
	s := caseSchema(t)
	v2, v3 := core.InVersion(s.VersionByID("V2")), core.InVersion(s.VersionByID("V3"))
	org := casestudy.OrgDim
	base := func(edit func(*core.Query)) core.Query {
		q := core.Query{
			Measures: []string{"Amount"},
			GroupBy:  []core.GroupBy{{Dim: org, Level: "Division"}},
			Grain:    core.GrainYear,
			Range:    temporal.Between(temporal.Year(2001), temporal.EndOfYear(2002)),
			Filters:  []core.Filter{{Dim: org, Members: []string{"Sales"}}},
			Mode:     core.TCM(),
		}
		if edit != nil {
			edit(&q)
		}
		return q
	}
	cases := map[string]core.Query{
		"base":                base(nil),
		"all measures":        base(func(q *core.Query) { q.Measures = nil }),
		"duplicate measure":   base(func(q *core.Query) { q.Measures = []string{"Amount", "Amount"} }),
		"other measure":       base(func(q *core.Query) { q.Measures = []string{"Amount2"} }),
		"measure forging two": base(func(q *core.Query) { q.Measures = []string{"Amount;6;Amount"} }),
		"measures order":      base(func(q *core.Query) { q.Measures = []string{"a", "b"} }),
		"measures reordered":  base(func(q *core.Query) { q.Measures = []string{"b", "a"} }),
		"measure joined":      base(func(q *core.Query) { q.Measures = []string{"a1;b"} }),
		"no group-by":         base(func(q *core.Query) { q.GroupBy = nil }),
		"other level":         base(func(q *core.Query) { q.GroupBy[0].Level = "Department" }),
		"level forging dim":   base(func(q *core.Query) { q.GroupBy[0] = core.GroupBy{Dim: "Org8;Division", Level: ""} }),
		"two group-bys":       base(func(q *core.Query) { q.GroupBy = append(q.GroupBy, core.GroupBy{Dim: org, Level: "Department"}) }),
		"group-bys reordered": base(func(q *core.Query) {
			q.GroupBy = []core.GroupBy{{Dim: org, Level: "Department"}, {Dim: org, Level: "Division"}}
		}),
		"no filter":             base(func(q *core.Query) { q.Filters = nil }),
		"other member":          base(func(q *core.Query) { q.Filters[0].Members = []string{"R&D"} }),
		"two members":           base(func(q *core.Query) { q.Filters[0].Members = []string{"R&D", "Sales"} }),
		"members joined":        base(func(q *core.Query) { q.Filters[0].Members = []string{"R&D,Sales"} }),
		"member forging two":    base(func(q *core.Query) { q.Filters[0].Members = []string{"R&D;5;Sales"} }),
		"two filters":           base(func(q *core.Query) { q.Filters = append(q.Filters, core.Filter{Dim: org, Members: []string{"R&D"}}) }),
		"filter on other dim":   base(func(q *core.Query) { q.Filters[0].Dim = "Geo" }),
		"empty filter":          base(func(q *core.Query) { q.Filters[0].Members = nil }),
		"grain all":             base(func(q *core.Query) { q.Grain = core.GrainAll }),
		"grain month":           base(func(q *core.Query) { q.Grain = core.GrainMonth }),
		"other start":           base(func(q *core.Query) { q.Range.Start++ }),
		"other end":             base(func(q *core.Query) { q.Range.End-- }),
		"all time":              base(func(q *core.Query) { q.Range = temporal.Interval{} }),
		"version V2":            base(func(q *core.Query) { q.Mode = v2 }),
		"version V3":            base(func(q *core.Query) { q.Mode = v3 }),
		"V2's ID, no signature": base(func(q *core.Query) { q.Mode = core.InVersion(&core.StructureVersion{ID: "V2"}) }),
	}
	seen := map[string]string{}
	for name, q := range cases {
		k := q.Key()
		if other, dup := seen[k]; dup {
			t.Errorf("%q and %q share the key %q", name, other, k)
		}
		seen[k] = name
	}
	// A zero range is read as Always, and equal queries key alike.
	always := base(func(q *core.Query) { q.Range = temporal.Always })
	if always.Key() != cases["all time"].Key() {
		t.Error("a zero range and Always key apart")
	}
	if base(nil).Key() != cases["base"].Key() {
		t.Error("Key is not deterministic")
	}
}
