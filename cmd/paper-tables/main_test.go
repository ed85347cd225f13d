package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllSectionsPass is the end-to-end reproduction gate in test form:
// every table and figure of the paper must regenerate with matching
// values.
func TestAllSectionsPass(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("reproduction gate failed: %v\noutput so far:\n%s", err, out.String())
	}
	text := out.String()
	for _, marker := range []string{
		"matches Tables 1, 2 and 7",
		"matches Table 3",
		"mode=tcm, Q=1.000",
		"mode=V1, Q=1.000",
		"mode=V2, Q=0.967",
		"mode=V3, Q=0.875",
		"operator counts match Table 11",
		"matches Table 12",
		"match Figure 2",
		"redundancy 4.00x",
		"all reproduced values match the paper",
	} {
		if !strings.Contains(text, marker) {
			t.Errorf("missing %q in harness output", marker)
		}
	}
	if n := strings.Count(text, "==== "); n != 16 {
		t.Errorf("section headers = %d, want 16", n)
	}
}

// TestOutputGolden pins the whole output byte for byte: every printed
// cell, confidence factor, quality score and operator listing, not only
// the values the sections check against the paper. Rewrite the file
// with MVOLAP_REWRITE_TESTDATA=1 only for an intended change of what
// the tables show.
func TestOutputGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatalf("reproduction gate failed: %v", err)
	}
	golden := filepath.Join("testdata", "output.golden")
	if os.Getenv("MVOLAP_REWRITE_TESTDATA") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from %s:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}
