package main

import (
	"bytes"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/schemaio"
	"mvolap/internal/store"
)

func demoSchemaFile(t *testing.T) string {
	t.Helper()
	s, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "schema.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := schemaio.Write(f, s); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDemoQuery(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-demo",
		"SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003 MODE V2"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Dpt.Jones | 200 (em)") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestRunSchemaFile(t *testing.T) {
	path := demoSchemaFile(t)
	var out bytes.Buffer
	err := run([]string{"-schema", path, "MODES"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "V3 [01/2003 ; Now]") {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestRunSnapshotFile: -schema sniffs the store's snapshot container,
// so a snapshot answers exactly like the warehouse it froze.
func TestRunSnapshotFile(t *testing.T) {
	seed, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	st, sch, ap, err := store.Open(dir, seed, store.Options{Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Snapshot(sch, ap.Log(), "test"); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*"))
	if len(snaps) != 1 {
		t.Fatalf("snapshot files = %v", snaps)
	}
	for _, stmt := range []string{
		"MODES",
		"SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003 MODE V2",
		"QUALITY SELECT Amount BY Org.Division, TIME.YEAR",
	} {
		var live, frozen bytes.Buffer
		if err := run([]string{"-demo", stmt}, strings.NewReader(""), &live); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-schema", snaps[0], stmt}, strings.NewReader(""), &frozen); err != nil {
			t.Fatal(err)
		}
		if live.Len() == 0 || frozen.String() != live.String() {
			t.Errorf("%s on the snapshot:\n%s\non the live schema:\n%s", stmt, frozen.String(), live.String())
		}
	}
}

func TestRunStdinStatements(t *testing.T) {
	var out bytes.Buffer
	stdin := strings.NewReader(`
# comment line
MODES
SELECT Amount BY Org.Division, TIME.YEAR MODE tcm
BROKEN STATEMENT
`)
	if err := run([]string{"-demo"}, stdin, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "tcm (temporally consistent)") {
		t.Errorf("MODES missing:\n%s", text)
	}
	if !strings.Contains(text, "Sales | 150 (sd)") {
		t.Errorf("query result missing:\n%s", text)
	}
	if !strings.Contains(text, "error:") {
		t.Errorf("broken statement must report, not abort:\n%s", text)
	}
}

func TestRunColor(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-demo", "-color",
		"SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003 MODE V2"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\x1b[32m(em)\x1b[0m") {
		t.Errorf("em cells must be green:\n%q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(""), &out); err == nil {
		t.Error("missing schema source must fail")
	}
	if err := run([]string{"-schema", "/nonexistent.json"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing file must fail")
	}
	if err := run([]string{"-demo", "NOT A QUERY"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad query must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-schema", bad}, strings.NewReader(""), &out); err == nil {
		t.Error("bad schema file must fail")
	}
	if err := run([]string{"-bogusflag"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad flag must fail")
	}
}

func TestRunCustomWeights(t *testing.T) {
	var out bytes.Buffer
	// With em distrusted and am fully trusted, the V2003 presentation
	// outranks V2002 (the inverse of the default ranking).
	err := run([]string{"-demo", "-weights", "em=0,am=10",
		"QUALITY SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	v2 := strings.Index(text, "V2 ")
	v3 := strings.Index(text, "V3 ")
	if v2 < 0 || v3 < 0 || v3 > v2 {
		t.Errorf("with inverted weights V3 must rank above V2:\n%s", text)
	}
}

func TestParseWeightsErrors(t *testing.T) {
	var out bytes.Buffer
	for _, spec := range []string{"bogus", "zz=5", "sd=notanumber", "sd=99"} {
		if err := run([]string{"-demo", "-weights", spec, "MODES"}, strings.NewReader(""), &out); err == nil {
			t.Errorf("weights %q must fail", spec)
		}
	}
}
