package store

import (
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/workload"
)

// BenchmarkSnapshotRestart measures what one snapshot costs and what a
// restart from it costs, on the benchmark module's tier S warehouse
// (benchmark/node.go's warehouseConfig with 500 departments: 36k facts,
// 6 structure versions, 7 temporal modes):
//
//   - snapshot: one Store.Snapshot of the served schema; it reports the
//     file's size as snapshot_bytes.
//   - restart-first-query: Open on the data directory, then one tcm
//     query — the time until a restarted process first answers.
//   - restart-all-modes: Open, then every mode presented in full
//     (Schema.Present) — the time until the reproduction tier has read
//     every mode.
//
// A snapshot carries facts and structure only, so recovery restores no
// mode (the legs b.Fatal otherwise).
func BenchmarkSnapshotRestart(b *testing.B) {
	w, err := workload.Generate(workload.Config{
		Seed: 11, Divisions: 8, Departments: 500, Years: 6, EvolutionsPerYear: 20, FactsPerYear: 12, Measures: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	st, sch, ap, err := Open(dir, w.Schema, Options{Logger: quietLog()})
	if err != nil {
		b.Fatal(err)
	}
	nFacts := sch.Facts().Len()

	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := st.Snapshot(sch, ap.Log(), "bench"); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.SnapshotBytes()), "snapshot_bytes")
	})
	if _, err := st.Snapshot(sch, ap.Log(), "bench"); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}

	restart := func(b *testing.B, serve func(*core.Schema) error) *core.Schema {
		b.Helper()
		st, back, _, err := Open(dir, nil, Options{Logger: quietLog()})
		if err != nil {
			b.Fatal(err)
		}
		if err := serve(back); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		defer b.StartTimer()
		if n := len(st.RecoveryStats().WarmModes); n != 0 {
			b.Fatalf("recovery restored %d modes, want none", n)
		}
		if back.Facts().Len() != nFacts {
			b.Fatalf("recovered %d facts, want %d", back.Facts().Len(), nFacts)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		return back
	}
	b.Run("restart-first-query", func(b *testing.B) {
		q := core.Query{GroupBy: []core.GroupBy{{Dim: workload.OrgDim, Level: "Division"}}, Mode: core.TCM()}
		for i := 0; i < b.N; i++ {
			restart(b, func(s *core.Schema) error {
				_, err := s.Execute(q)
				return err
			})
		}
	})
	b.Run("restart-all-modes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			restart(b, func(s *core.Schema) error {
				for _, m := range s.Modes() {
					if _, err := s.Present(m, func(*core.MappedFact) bool { return true }); err != nil {
						return err
					}
				}
				return nil
			})
		}
	})
}
