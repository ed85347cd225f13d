package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"mvolap/internal/server"
	"mvolap/internal/store"
	"mvolap/internal/workload"
)

const probeCount = 16

// checkReport is what the output check found. The run is correct only
// with no mismatch, every acknowledged fact recovered and the log
// ending at the last acknowledged record.
type checkReport struct {
	ProbeMismatches int     `json:"probe_mismatches"`
	FactsRecovered  int     `json:"facts_recovered"`
	FactsExpected   int     `json:"facts_expected"`
	LastSeq         uint64  `json:"last_seq"`
	LastAcked       uint64  `json:"last_acked"`
	RecoverMs       float64 `json:"recover_ms"`
	Replayed        int     `json:"replayed"`
	WarmModes       int     `json:"warm_modes"`
	// Modes is the number of temporal modes the live server listed.
	Modes int `json:"modes"`
}

func (c checkReport) ok() bool {
	return c.ProbeMismatches == 0 && c.FactsRecovered == c.FactsExpected && c.LastSeq == c.LastAcked
}

// probes are statements covering tcm, the default mode and the
// warehouse's version modes (all of them up to 13, else evenly spread),
// at every grain.
func probes(modes []string, lastYear int) []string {
	out := []string{
		"SELECT * BY Org.Division, TIME.YEAR MODE tcm",
		fmt.Sprintf("SELECT m0 BY Org.Department, TIME.QUARTER WHERE TIME BETWEEN %d AND %d MODE tcm", lastYear-1, lastYear),
		"SELECT * BY Org.Division, TIME.MONTH",
	}
	grains := []string{"YEAR", "QUARTER", "MONTH", "ALL"}
	versions := modes[1:]
	n := min(probeCount-len(out), len(versions))
	for i := 0; i < n; i++ {
		m := versions[i*len(versions)/n]
		out = append(out, fmt.Sprintf("SELECT * BY Org.Division, TIME.%s MODE %s", grains[i%len(grains)], m))
	}
	return out
}

// outputCheck proves the run's writes on a crash image. It copies the
// data directory while the store is still open, recovers the copy over
// a freshly generated seed warehouse, drops every materialized mode,
// and requires the cold recovered warehouse to answer the probes byte
// for byte as the live server just did.
func outputCheck(n *node, c *http.Client, factsExpected int, lastAcked uint64, scratch string) (checkReport, error) {
	rep := checkReport{FactsExpected: factsExpected, LastAcked: lastAcked}
	status, body, err := get(c, n.url+"/modes")
	if err != nil || status != http.StatusOK {
		return rep, fmt.Errorf("check: GET /modes: status %d: %v", status, err)
	}
	var live []struct {
		Mode string `json:"mode"`
	}
	if err := json.Unmarshal(body, &live); err != nil {
		return rep, fmt.Errorf("check: GET /modes: %w", err)
	}
	modes := make([]string, len(live))
	for i, m := range live {
		modes[i] = m.Mode
	}
	rep.Modes = len(modes)
	stmts := probes(modes, workload.StartYear+n.cfg.Years-1)
	want := make([][]byte, len(stmts))
	for i, stmt := range stmts {
		status, body, err := get(c, n.url+queryPath(stmt))
		if err != nil || status != http.StatusOK {
			return rep, fmt.Errorf("check: live probe %q: status %d: %v", stmt, status, err)
		}
		want[i] = body
	}

	image := filepath.Join(scratch, "crash-image")
	if err := copyDir(n.dir, image); err != nil {
		return rep, fmt.Errorf("check: %w", err)
	}
	defer os.RemoveAll(image)
	seed, err := workload.Generate(n.cfg)
	if err != nil {
		return rep, err
	}
	st, sch, _, err := store.Open(image, seed.Schema, storeOptions())
	if err != nil {
		return rep, fmt.Errorf("check: recovering the crash image: %w", err)
	}
	defer st.Close()
	stats := st.RecoveryStats()
	rep.RecoverMs = float64(stats.Duration) / 1e6
	rep.Replayed = stats.Replayed
	rep.WarmModes = len(stats.WarmModes)
	rep.FactsRecovered = sch.Facts().Len()
	rep.LastSeq = st.LastSeq()

	sch.Invalidate()
	cold := server.New(sch, server.WithLogger(discard), server.WithQueryCache(0)).Handler()
	for i, stmt := range stmts {
		rec := httptest.NewRecorder()
		cold.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, queryPath(stmt), nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[i]) {
			rep.ProbeMismatches++
		}
	}
	return rep, nil
}

// copyDir copies the regular files of one flat directory.
func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(from, e.Name()), filepath.Join(to, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes is the size of the regular files of a data directory, and
// of its snapshot files alone.
func dirBytes(dir string) (total, snapshots int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		if !info.Mode().IsRegular() {
			continue
		}
		total += info.Size()
		if strings.HasPrefix(e.Name(), "snapshot-") {
			snapshots += info.Size()
		}
	}
	return total, snapshots, nil
}
