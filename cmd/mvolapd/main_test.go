package main

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/schemaio"
	"mvolap/internal/store"
)

func TestLoadSchemaDemo(t *testing.T) {
	s, err := loadSchema("", true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Facts().Len() != 10 {
		t.Errorf("demo facts = %d", s.Facts().Len())
	}
}

func TestLoadSchemaFile(t *testing.T) {
	src, err := casestudy.New(casestudy.Config{WithFacts: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := schemaio.Write(f, src); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err := loadSchema(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "institution" {
		t.Errorf("name = %q", s.Name)
	}
}

func TestLoadSchemaErrors(t *testing.T) {
	if _, err := loadSchema("", false); err == nil {
		t.Error("no source must fail")
	}
	if _, err := loadSchema("/nonexistent.json", false); err == nil {
		t.Error("missing file must fail")
	}
}

func TestParseFlagsPersistenceDefaults(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.dataDir != "" || c.fsync != "always" || c.snapshotEvery != 256 || c.replicateFrom != "" {
		t.Errorf("defaults = %q %q %d %q", c.dataDir, c.fsync, c.snapshotEvery, c.replicateFrom)
	}
	c, err = parseFlags([]string{"-data-dir", "/tmp/d", "-fsync", "interval", "-snapshot-every", "8"})
	if err != nil {
		t.Fatal(err)
	}
	if c.dataDir != "/tmp/d" || c.fsync != "interval" || c.snapshotEvery != 8 {
		t.Errorf("parsed = %q %q %d", c.dataDir, c.fsync, c.snapshotEvery)
	}
	if _, err := parseFlags([]string{"-snapshot-warm=false"}); err == nil {
		t.Error("-snapshot-warm is gone: a snapshot carries no modes, so the flag must not parse")
	}
	c, err = parseFlags([]string{"-replicate-from", "http://leader:8080"})
	if err != nil {
		t.Fatal(err)
	}
	if c.replicateFrom != "http://leader:8080" {
		t.Errorf("replicateFrom = %q", c.replicateFrom)
	}
}

func TestStoreOptions(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	opts, err := storeOptions(&config{fsync: "interval", snapshotEvery: 32}, logger)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Fsync != store.FsyncInterval || opts.SnapshotEvery != 32 || opts.Logger != logger {
		t.Errorf("options = %+v", opts)
	}
	if _, err := storeOptions(&config{fsync: "bogus"}, logger); err == nil {
		t.Error("bad fsync policy must fail")
	}
}

// TestStoreOptionsDriveStore wires the flag-derived options into a
// real store in a temp dir, the same path main takes with -data-dir.
func TestStoreOptionsDriveStore(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	opts, err := storeOptions(&config{fsync: "off", snapshotEvery: 4}, logger)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := loadSchema("", true)
	if err != nil {
		t.Fatal(err)
	}
	st, sch, _, err := store.Open(t.TempDir(), seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if sch.Name != "institution" {
		t.Errorf("recovered schema = %q", sch.Name)
	}
}

func TestParseFlagsVersion(t *testing.T) {
	c, err := parseFlags([]string{"-version"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.version {
		t.Error("-version not parsed")
	}
	if c, _ = parseFlags(nil); c.version {
		t.Error("version defaults on")
	}
}
