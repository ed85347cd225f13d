package tql

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

// TestExplainGolden pins EXPLAIN's text for every leaf member version of
// the case study, at every instant a fact holds, in every temporal mode,
// byte for byte against testdata/explain.golden. Rewrite it with
// MVOLAP_REWRITE_TESTDATA=1 only for an intended change of the lineage
// a user reads.
func TestExplainGolden(t *testing.T) {
	s := caseSchema(t)
	var instants []temporal.Instant
	s.Facts().All(func(f *core.Fact) bool {
		if !slices.Contains(instants, f.Time) {
			instants = append(instants, f.Time)
		}
		return true
	})
	slices.Sort(instants)
	var b strings.Builder
	for _, d := range s.Dimensions() {
		for _, mv := range d.Versions() {
			if !d.IsLeafVersion(mv.ID) {
				continue
			}
			for _, at := range instants {
				for _, m := range s.Modes() {
					stmt := "EXPLAIN " + string(mv.ID) + " AT " + at.String() + " MODE " + m.String()
					out, err := Run(s, stmt)
					if err != nil {
						t.Fatalf("%s: %v", stmt, err)
					}
					b.WriteString("> " + stmt + "\n" + Render(out))
				}
			}
		}
	}
	path := filepath.Join("testdata", "explain.golden")
	if os.Getenv("MVOLAP_REWRITE_TESTDATA") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("EXPLAIN text diverges from %s:\n%s", path, got)
	}
}
