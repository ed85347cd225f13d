package mvolap_test

// Scaling sweeps for the costs the paper discusses qualitatively
// (structure-version inference, multiversion fact table
// presentation, per-mode query latency, duplication overhead of the
// MultiVersion DW, the ETL snapshot differ), ablations, and the
// serving path's incremental-maintenance and scan microbenchmarks. The
// paper's tables themselves are regenerated and checked by
// cmd/paper-tables. Run with:
//
//	go test -bench=. -benchmem
import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/cube"
	"mvolap/internal/etl"
	"mvolap/internal/evolution"
	"mvolap/internal/rolap"
	"mvolap/internal/scd"
	"mvolap/internal/schemaio"
	"mvolap/internal/temporal"
	"mvolap/internal/tql"
	"mvolap/internal/warehouse"
	"mvolap/internal/workload"
)

func benchSchema(b *testing.B) *core.Schema {
	b.Helper()
	s, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSCDComparison runs the case-study workload through the three
// Kimball baselines (§1.2).
func BenchmarkSCDComparison(b *testing.B) {
	facts := make([]scd.Fact, 0, 10)
	for _, r := range casestudy.Table3() {
		facts = append(facts, scd.Fact{Key: string(r.Dept), Time: r.Time, Value: r.Amount})
	}
	for i := 0; i < b.N; i++ {
		t1, t2, t3 := scd.NewType1(), scd.NewType2(), scd.NewType3()
		for _, d := range []scd.Dimension{t1, t2, t3} {
			d.Set(string(casestudy.Jones), "Sales", temporal.Year(2001))
			d.Set(string(casestudy.Smith), "Sales", temporal.Year(2001))
			d.Set(string(casestudy.Brian), "R&D", temporal.Year(2001))
			d.Set(string(casestudy.Smith), "R&D", temporal.Year(2002))
			d.Delete(string(casestudy.Jones), temporal.Year(2003))
			d.Set(string(casestudy.Bill), "Sales", temporal.Year(2003))
			d.Set(string(casestudy.Paul), "Sales", temporal.Year(2003))
		}
		if scd.Totals(t1, facts, scd.Current).LostFacts == 0 {
			b.Fatal("type1 must lose facts")
		}
		if scd.Totals(t2, facts, scd.AtTime).LostFacts != 0 {
			b.Fatal("type2 at-time must not lose facts")
		}
		_ = scd.Totals(t3, facts, scd.AtTime)
	}
}

// BenchmarkTQL measures parsing and full execution of the paper's Q2.
func BenchmarkTQL(b *testing.B) {
	const stmt = "SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003 MODE VERSION AT 2002"
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tql.Parse(stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("run", func(b *testing.B) {
		s := benchSchema(b)
		if _, err := tql.Run(s, stmt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tql.Run(s, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- scaling sweeps on synthetic workloads ---

var sweepConfigs = []workload.Config{
	{Seed: 1, Departments: 10, Years: 4, EvolutionsPerYear: 2},
	{Seed: 1, Departments: 40, Years: 8, EvolutionsPerYear: 4},
	{Seed: 1, Departments: 80, Years: 16, EvolutionsPerYear: 8},
}

func sweepName(cfg workload.Config) string {
	return fmt.Sprintf("depts=%d/years=%d/evo=%d", cfg.Departments, cfg.Years, cfg.EvolutionsPerYear)
}

// BenchmarkStructureVersionInference measures Definition 9 inference as
// history length and change rate grow, and on the end state of the
// benchmark's evolve_mix workload: after-evolve is what the serving tier
// pays per evolve (clone, apply one more script, derive), full is a
// derivation from nothing (Invalidate, derive), as after a snapshot
// load.
func BenchmarkStructureVersionInference(b *testing.B) {
	for _, cfg := range sweepConfigs {
		b.Run(sweepName(cfg), func(b *testing.B) {
			w := workload.MustGenerate(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Schema.Invalidate()
				if len(w.Schema.StructureVersions()) == 0 {
					b.Fatal("no versions")
				}
			}
		})
	}
	s, applier, next := evolveMixSchema(b)
	b.Run("evolve_mix/after-evolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clone := s.Clone()
			if err := applier.Rebind(clone).Apply(next...); err != nil {
				b.Fatal(err)
			}
			if got := len(clone.StructureVersions()); got != 179 {
				b.Fatalf("%d structure versions after one more evolve, want 179", got)
			}
		}
	})
	b.Run("evolve_mix/full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Invalidate()
			if got := len(s.StructureVersions()); got != 178 {
				b.Fatalf("%d structure versions, want 178", got)
			}
		}
	})
}

// evolveMixSchema builds the end state of the benchmark's evolve_mix
// workload: its tier S warehouse (warehouseConfig(500) in
// benchmark/node.go) after 172 of OpGen(1)'s evolution scripts, 178
// structure versions. It returns the applier and the parsed operators
// of the generator's next script as well.
func evolveMixSchema(b *testing.B) (*core.Schema, *evolution.Applier, []evolution.Op) {
	b.Helper()
	w := workload.MustGenerate(workload.Config{
		Seed: 11, Divisions: 8, Departments: 500, Years: 6,
		EvolutionsPerYear: 20, FactsPerYear: 12, Measures: 2,
	})
	gen := workload.NewOpGen(1, workload.SurfaceOf(w.Schema), "")
	parse := func() []evolution.Op {
		ops, err := evolution.ParseScript(strings.NewReader(gen.EvolveScript()), len(w.Schema.Measures()))
		if err != nil {
			b.Fatal(err)
		}
		return ops
	}
	for i := 0; i < 172; i++ {
		if err := w.Applier.Apply(parse()...); err != nil {
			b.Fatal(err)
		}
	}
	if got := len(w.Schema.StructureVersions()); got != 178 {
		b.Fatalf("%d structure versions, want 178", got)
	}
	return w.Schema, w.Applier, parse()
}

// BenchmarkMVFTInference measures presenting Definition 11's f' in
// every mode (Schema.Present) as the schema grows.
func BenchmarkMVFTInference(b *testing.B) {
	for _, cfg := range sweepConfigs {
		b.Run(sweepName(cfg), func(b *testing.B) {
			w := workload.MustGenerate(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Schema.Invalidate()
				for _, m := range w.Schema.Modes() {
					if _, err := w.Schema.Present(m, func(*core.MappedFact) bool { return true }); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkQueryByMode compares steady-state query latency in tcm vs a
// version mode on the midsize workload.
func BenchmarkQueryByMode(b *testing.B) {
	w := workload.MustGenerate(sweepConfigs[1])
	s := w.Schema
	modes := map[string]core.Mode{
		"tcm":     core.TCM(),
		"version": core.InVersion(s.StructureVersions()[0]),
	}
	for name, mode := range modes {
		b.Run(name, func(b *testing.B) {
			q := core.Query{
				GroupBy: []core.GroupBy{{Dim: workload.OrgDim, Level: "Division"}},
				Grain:   core.GrainYear,
				Mode:    mode,
			}
			if _, err := s.Execute(q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRedundancySweep quantifies the §5.1 duplication overhead as
// the number of structure versions grows, under both policies.
func BenchmarkRedundancySweep(b *testing.B) {
	for _, cfg := range sweepConfigs {
		w := workload.MustGenerate(cfg)
		for _, policy := range []warehouse.StoragePolicy{warehouse.Full, warehouse.Delta} {
			b.Run(sweepName(cfg)+"/"+policy.String(), func(b *testing.B) {
				var stats warehouse.RedundancyStats
				for i := 0; i < b.N; i++ {
					dw, err := warehouse.BuildMultiVersion(w.Schema, policy)
					if err != nil {
						b.Fatal(err)
					}
					stats = dw.Stats
				}
				b.ReportMetric(float64(stats.StoredRows), "rows")
				b.ReportMetric(stats.Saving(), "saving")
			})
		}
	}
}

// BenchmarkCubeBuildAndPrecompute measures cube construction plus
// aggregate precomputation across all modes and levels.
func BenchmarkCubeBuildAndPrecompute(b *testing.B) {
	w := workload.MustGenerate(sweepConfigs[1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := cube.Build(w.Schema)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Precompute(workload.OrgDim, core.GrainYear); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkETLDiff measures snapshot diffing as dimension size grows.
func BenchmarkETLDiff(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			s := core.NewSchema("d", core.Measure{Name: "m", Agg: core.Sum})
			if err := s.AddDimension(core.NewDimension("Org", "Org")); err != nil {
				b.Fatal(err)
			}
			var sb strings.Builder
			sb.WriteString("Department,Division\n")
			for i := 0; i < n; i++ {
				fmt.Fprintf(&sb, "dept-%d,div-%d\n", i, i%5)
			}
			snap1, err := etl.ReadDimensionSnapshot(strings.NewReader(sb.String()), temporal.Year(2001))
			if err != nil {
				b.Fatal(err)
			}
			ops, err := etl.Diff(s, "Org", snap1, etl.Hints{})
			if err != nil {
				b.Fatal(err)
			}
			if err := evolution.NewApplier(s).Apply(ops...); err != nil {
				b.Fatal(err)
			}
			// Second snapshot: 10% of members reclassified.
			var sb2 strings.Builder
			sb2.WriteString("Department,Division\n")
			for i := 0; i < n; i++ {
				div := i % 5
				if i%10 == 0 {
					div = (div + 1) % 5
				}
				fmt.Fprintf(&sb2, "dept-%d,div-%d\n", i, div)
			}
			snap2, err := etl.ReadDimensionSnapshot(strings.NewReader(sb2.String()), temporal.Year(2002))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops, err := etl.Diff(s, "Org", snap2, etl.Hints{})
				if err != nil {
					b.Fatal(err)
				}
				if len(ops) == 0 {
					b.Fatal("no reclassifications detected")
				}
			}
		})
	}
}

// BenchmarkRolapSubstrate measures the relational engine primitives the
// warehouses run on.
func BenchmarkRolapSubstrate(b *testing.B) {
	const rows = 10000
	fact := rolap.MustNewTable("fact", rolap.Schema{
		{Name: "dept", Type: rolap.Text},
		{Name: "year", Type: rolap.Int},
		{Name: "amount", Type: rolap.Float},
	})
	for i := 0; i < rows; i++ {
		fact.MustInsert(fmt.Sprintf("dept-%d", i%100), 2000+i%10, float64(i%500))
	}
	dim := rolap.MustNewTable("dim", rolap.Schema{
		{Name: "id", Type: rolap.Text},
		{Name: "division", Type: rolap.Text},
	})
	for i := 0; i < 100; i++ {
		dim.MustInsert(fmt.Sprintf("dept-%d", i), fmt.Sprintf("div-%d", i%7))
	}
	db := rolap.NewDatabase("bench")
	dbAdd(b, db, fact)
	dbAdd(b, db, dim)
	b.Run("group-by", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rel, err := db.Query("SELECT year, SUM(amount) AS total FROM fact GROUP BY year")
			if err != nil {
				b.Fatal(err)
			}
			if len(rel.Rows) != 10 {
				b.Fatal("bad group count")
			}
		}
	})
	b.Run("join-rollup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rel, err := db.Query("SELECT division, SUM(amount) AS total " +
				"FROM fact JOIN dim ON fact.dept = dim.id GROUP BY division")
			if err != nil {
				b.Fatal(err)
			}
			if len(rel.Rows) != 7 {
				b.Fatal("bad rollup")
			}
		}
	})
}

func dbAdd(b *testing.B, db *rolap.Database, t *rolap.Table) {
	b.Helper()
	created, err := db.CreateTable(t.Name, t.Schema())
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range t.Rows() {
		created.MustInsert(row...)
	}
}

// --- ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblationMapperComposition compares the collapsed linear
// composition (k factors multiply into a single Linear) against generic
// function chaining for a 1000-step mapping chain, applied a thousand
// times — why the engine special-cases Linear∘Linear.
func BenchmarkAblationMapperComposition(b *testing.B) {
	const chainLen = 1000
	b.Run("linear-collapsed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var m core.Mapper = core.Linear{K: 1.0001}
			for j := 0; j < chainLen; j++ {
				m = m.Compose(core.Linear{K: 0.9999})
			}
			for j := 0; j < 1000; j++ {
				if _, ok := m.Map(float64(j)); !ok {
					b.Fatal("map failed")
				}
			}
		}
	})
	b.Run("func-chained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var m core.Mapper = core.Func{F: func(x float64) float64 { return x * 1.0001 }}
			for j := 0; j < chainLen; j++ {
				m = m.Compose(core.Func{F: func(x float64) float64 { return x * 0.9999 }})
			}
			for j := 0; j < 1000; j++ {
				if _, ok := m.Map(float64(j)); !ok {
					b.Fatal("map failed")
				}
			}
		}
	})
}

// BenchmarkAblationConfidenceAlgebra compares the Example 5 truth table
// against the quantitative algebra on the combine hot path.
func BenchmarkAblationConfidenceAlgebra(b *testing.B) {
	algs := map[string]core.ConfidenceAlgebra{
		"truth-table":  core.PaperAlgebra(),
		"quantitative": core.NewQuantitativeAlgebra(),
	}
	for name, alg := range algs {
		b.Run(name, func(b *testing.B) {
			cfs := []core.Confidence{core.SourceData, core.ExactMapping, core.ApproxMapping, core.UnknownMapping}
			for i := 0; i < b.N; i++ {
				acc := core.SourceData
				for j := 0; j < 1000; j++ {
					acc = alg.Combine(acc, cfs[j%4])
				}
				_ = acc
			}
		})
	}
}

// BenchmarkAblationCubeCache compares cold (cache invalidated each
// iteration) and warm cube materialization — the value of aggregate
// precomputation (§1.1).
func BenchmarkAblationCubeCache(b *testing.B) {
	w := workload.MustGenerate(sweepConfigs[1])
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := cube.Build(w.Schema)
			if err != nil {
				b.Fatal(err)
			}
			v, _ := c.NewView()
			if _, err := v.Materialize(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c, err := cube.Build(w.Schema)
		if err != nil {
			b.Fatal(err)
		}
		v, _ := c.NewView()
		if _, err := v.Materialize(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := v.Materialize(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDeltaReadCost measures the read-side price of delta
// storage: reconstructing a mode's rows versus reading them stored.
func BenchmarkAblationDeltaReadCost(b *testing.B) {
	w := workload.MustGenerate(sweepConfigs[1])
	mode := w.Schema.StructureVersions()[0].ID
	for _, policy := range []warehouse.StoragePolicy{warehouse.Full, warehouse.Delta} {
		dw, err := warehouse.BuildMultiVersion(w.Schema, policy)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(policy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rel, err := dw.FactRows(mode)
				if err != nil {
					b.Fatal(err)
				}
				if len(rel.Rows) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkSchemaIO measures JSON persistence of a midsize warehouse.
func BenchmarkSchemaIO(b *testing.B) {
	w := workload.MustGenerate(sweepConfigs[1])
	var buf bytes.Buffer
	if err := schemaio.Write(&buf, w.Schema); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var out bytes.Buffer
			if err := schemaio.Write(&out, w.Schema); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := schemaio.Read(bytes.NewReader(blob)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDrillAcross measures the galaxy-schema drill-across over two
// conformed stars built from the same synthetic dimension.
func BenchmarkDrillAcross(b *testing.B) {
	w := workload.MustGenerate(workload.Config{Seed: 2, Departments: 20, Years: 6, EvolutionsPerYear: 2})
	star1 := w.Schema
	star2 := core.NewSchema("secondary", core.Measure{Name: "m0", Agg: core.Sum})
	src := star1.Dimension(workload.OrgDim)
	d := core.NewDimension(workload.OrgDim, "Org")
	for _, mv := range src.Versions() {
		if err := d.AddVersion(mv.Clone()); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range src.Relationships() {
		if err := d.AddRelationship(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := star2.AddDimension(d); err != nil {
		b.Fatal(err)
	}
	for _, f := range star1.Facts().Facts() {
		if err := star2.InsertFact(f.Coords.Clone(), f.Time, f.Values[0]*0.9); err != nil {
			b.Fatal(err)
		}
	}
	c := warehouse.NewConstellation("bench")
	if err := c.AddStar(star1); err != nil {
		b.Fatal(err)
	}
	if err := c.AddStar(star2); err != nil {
		b.Fatal(err)
	}
	q := core.Query{
		GroupBy: []core.GroupBy{{Dim: workload.OrgDim, Level: "Division"}},
		Grain:   core.GrainYear,
	}
	tcm := func(*core.Schema) core.Mode { return core.TCM() }
	if _, err := c.DrillAcross(q, tcm); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.DrillAcross(q, tcm)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty drill-across")
		}
	}
}

// --- incremental maintenance ---

// ingestSchema builds a large synthetic warehouse for the incremental
// maintenance benches: `leaves` departments under one division, with
// leaf validity starting in one of three years so the schema has three
// structure versions (four temporal modes with tcm), and
// leaves*monthsPerLeaf facts at distinct (member, month) keys.
func ingestSchema(b testing.TB, leaves, monthsPerLeaf int) *core.Schema {
	b.Helper()
	s := core.NewSchema("ingest", core.Measure{Name: "Amount", Agg: core.Sum})
	d := core.NewDimension("Org", "Org")
	if err := d.AddVersion(&core.MemberVersion{ID: "top", Level: "Division", Valid: temporal.Since(temporal.Year(2000))}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < leaves; i++ {
		start := temporal.Year(2000 + i%3)
		id := core.MVID(fmt.Sprintf("leaf%d", i))
		if err := d.AddVersion(&core.MemberVersion{ID: id, Level: "Department", Valid: temporal.Since(start)}); err != nil {
			b.Fatal(err)
		}
		if err := d.AddRelationship(core.TemporalRelationship{From: id, To: "top", Valid: temporal.Since(start)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		b.Fatal(err)
	}
	ingestFacts(b, s, leaves, monthsPerLeaf)
	return s
}

// ingestFacts inserts ingestSchema's leaves*monthsPerLeaf facts into s.
func ingestFacts(b testing.TB, s *core.Schema, leaves, monthsPerLeaf int) {
	b.Helper()
	base := temporal.Year(2003)
	for i := 0; i < leaves; i++ {
		id := core.MVID(fmt.Sprintf("leaf%d", i))
		for m := 0; m < monthsPerLeaf; m++ {
			if err := s.InsertFact(core.Coords{id}, base+temporal.Instant(m), float64(i+m)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestFactStoreBytes bounds the live heap one source fact costs on
// BenchmarkIncrementalIngest's 100k-fact warehouse and on one half as
// large again, so that a doubling of any part of the store between the
// two sizes cannot hide. The fact table holds Definition 5's f and
// nothing of f': one tuple of shard columns (a 4-byte member version
// ordinal, a 2-byte instant offset, a 2-byte whole value and a live
// bit: about 8 B) and one key-index slot, a 4-byte position and a
// 1-byte tag in a table kept between 1/2 and 3/4 full (6.7–10 B).
// While the entries were Go map slots of a 64-bit hash and a position,
// a fact cost 44.6 B at 100k and 52.2 B at 150k; while the table also
// stored tcm's confidences and source counts, 49.6 B at 100k; while it
// was a pointer list of heap tuples with a key index of its own beside
// a materialized tcm table, 121 + 49 B; with an 8-byte instant and an
// 8-byte value a tuple, 36.8 B at 100k and 36.5 B at 150k; with an
// 8-byte word of fingerprint and position a slot, 24.6 B at 100k
// (where the index had just grown) and 24.4 B at 150k. It measures
// 15.8 B at 100k and 15.6 B at 150k; an index that has just grown adds
// about 3 B a fact, and the bound leaves 1 B more for the runtime's
// heap accounting to move.
func TestFactStoreBytes(t *testing.T) {
	const leaves, bound = 1000, 20
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, months := range []int{100, 150} {
		s := ingestSchema(t, leaves, 0)
		before := liveHeap()
		ingestFacts(t, s, leaves, months)
		ft := s.Facts()
		grown := float64(liveHeap()) - float64(before)
		per := grown / float64(leaves*months)
		t.Logf("%d facts: %.1f B live heap per fact", ft.Len(), per)
		if per > bound {
			t.Errorf("at %d facts a source fact costs %.1f B of live heap, want at most %d", ft.Len(), per, bound)
		}
		runtime.KeepAlive(s)
	}
}

// TestVersionModesHoldNoCopy bounds the live heap that answering in
// every version mode leaves behind on the benchmark's tier-S warehouse
// (36k facts, six structure versions). A version mode is one resolution
// table per dimension over the one fact store, O(members), and the
// rollup tables its structure needs: nothing per fact. While every mode
// stored its own materialized table, one query in each of the six modes left
// about 410 B per source fact behind.
func TestVersionModesHoldNoCopy(t *testing.T) {
	const bound = 8
	w, err := workload.Generate(workload.Config{
		Seed: 1, Divisions: 8, Departments: 500, Years: 6, EvolutionsPerYear: 20, FactsPerYear: 12, Measures: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Schema
	svs := s.StructureVersions()
	if len(svs) != 6 {
		t.Fatalf("tier S has %d structure versions, want 6", len(svs))
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	for _, sv := range svs {
		res, err := s.Execute(core.Query{
			GroupBy: []core.GroupBy{{Dim: workload.OrgDim, Level: "Division"}},
			Grain:   core.GrainYear,
			Mode:    core.InVersion(sv),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() == 0 {
			t.Fatalf("%s answered no row", sv.ID)
		}
	}
	grown := float64(liveHeap()) - float64(before)
	per := grown / float64(s.Facts().Len())
	t.Logf("%d facts, %d version modes answered: %.2f B live heap per fact", s.Facts().Len(), len(svs), per)
	if per > bound {
		t.Errorf("answering every version mode left %.2f B of live heap per source fact, want at most %d", per, bound)
	}
	runtime.KeepAlive(s)
}

// ingestBatch returns n (member, month, value) insertions at months
// beyond every fact ingestSchema created, so the batch never collides
// with an existing key and the fact-side delta stays insert-only.
type ingestFact struct {
	id core.MVID
	at temporal.Instant
	v  float64
}

func ingestBatch(leaves, monthsPerLeaf, n int) []ingestFact {
	fresh := temporal.Year(2003) + temporal.Instant(monthsPerLeaf)
	out := make([]ingestFact, n)
	for i := range out {
		out[i] = ingestFact{
			id: core.MVID(fmt.Sprintf("leaf%d", i%leaves)),
			at: fresh + temporal.Instant(i/leaves),
			v:  float64(i),
		}
	}
	return out
}

// BenchmarkIncrementalIngest measures what a write costs on a ~100k-
// fact warehouse: a clone and a small insert-only fact batch, with
// nothing left to maintain — every mode presents the clone's fact store
// at query time (write) — against the same write followed by presenting
// every temporal mode, tcm plus the three structure versions, in full
// as the reproduction tier does (cold-rebuild, Schema.Present).
//
// Those legs clone the same cold-built base every iteration, which no
// server does. The lineage legs write the way the serving tier does —
// every batch clones the previous batch's clone — once starting at the
// base and once after 1000 batches down the lineage (run off the
// clock): per-batch ns/op and B/op of the two must agree, or a write
// pays for its history.
func BenchmarkIncrementalIngest(b *testing.B) {
	const leaves, months = 1000, 100 // 100k facts
	base := ingestSchema(b, leaves, months)
	for _, m := range base.Modes() {
		if _, err := base.Execute(core.Query{Mode: m}); err != nil {
			b.Fatal(err)
		}
	}
	write := func(b *testing.B, from *core.Schema, batch []ingestFact, present bool) *core.Schema {
		clone := from.Clone()
		for _, f := range batch {
			if err := clone.InsertFact(core.Coords{f.id}, f.at, f.v); err != nil {
				b.Fatal(err)
			}
		}
		if present {
			for _, m := range clone.Modes() {
				if _, err := clone.Present(m, func(*core.MappedFact) bool { return true }); err != nil {
					b.Fatal(err)
				}
			}
		}
		return clone
	}
	run := func(batchSize int, present bool) func(b *testing.B) {
		batch := ingestBatch(leaves, months, batchSize)
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				write(b, base, batch, present)
			}
		}
	}
	for _, batchSize := range []int{100, 1000} {
		b.Run(fmt.Sprintf("batch=%d/write", batchSize), run(batchSize, false))
		b.Run(fmt.Sprintf("batch=%d/cold-rebuild", batchSize), run(batchSize, true))
	}
	lineage := func(prior int) func(b *testing.B) {
		const batchSize = 32
		return func(b *testing.B) {
			facts := ingestBatch(leaves, months, (prior+b.N)*batchSize)
			cur := base
			for w := 0; w < prior; w++ {
				cur = write(b, cur, facts[w*batchSize:(w+1)*batchSize], false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for w := prior; w < prior+b.N; w++ {
				cur = write(b, cur, facts[w*batchSize:(w+1)*batchSize], false)
			}
			b.StopTimer()
			// The end of the lineage answers in every mode.
			for _, m := range cur.Modes() {
				if _, err := cur.Execute(core.Query{Mode: m}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("batch=32/lineage/first", lineage(0))
	b.Run("batch=32/lineage/after-1000", lineage(1000))
}

// BenchmarkShardedSwap measures what a clone-swap pays on a ~100k-fact
// warehouse whose every mode has been asked about: Schema.Clone and a
// one-fact batch over shared storage shards (O(shard headers) plus the
// borrowed tail shard), with no mode to fold the batch into.
func BenchmarkShardedSwap(b *testing.B) {
	const leaves, months = 1000, 100 // 100k facts
	base := ingestSchema(b, leaves, months)
	for _, m := range base.Modes() {
		if _, err := base.Execute(core.Query{Mode: m}); err != nil {
			b.Fatal(err)
		}
	}
	batch := ingestBatch(leaves, months, 1)

	b.Run("warm-swap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clone := base.Clone()
			for _, f := range batch {
				if err := clone.InsertFact(core.Coords{f.id}, f.at, f.v); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkShardedScan measures steady-state query aggregation over
// the ~100k facts of the one fact store: the columnar scan classifying
// tuples straight out of the shard arrays and folding them shard by
// shard, on the benchmark's goroutine, then ordering the cells and
// writing the rows.
// rollup is one division level, year grain, tcm (9 rows); drill groups
// by the leaf level at quarter grain (34k rows: creating cells and
// writing rows carry weight, ordering them little); version rolls up
// inside a structure version, where one static rollup table serves
// every instant. In those three every tuple has a sole ancestor at the
// grouped level and is classified by array reads once its cell exists;
// multi is rollup over a clone where each leaf also sits under a second
// division (a multiple hierarchy, 18 rows), so every tuple has a
// two-member ancestor set and goes through the scan's general classify.
func BenchmarkShardedScan(b *testing.B) {
	const leaves, months = 1000, 100 // 100k facts
	s := ingestSchema(b, leaves, months)
	multi := s.Clone()
	org := multi.Dimension("Org")
	if err := org.AddVersion(&core.MemberVersion{ID: "alt", Level: "Division", Valid: temporal.Since(temporal.Year(2000))}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < leaves; i++ {
		id := core.MVID(fmt.Sprintf("leaf%d", i))
		if err := org.AddRelationship(core.TemporalRelationship{From: id, To: "alt", Valid: temporal.Since(temporal.Year(2000 + i%3))}); err != nil {
			b.Fatal(err)
		}
	}
	rollup := core.Query{
		GroupBy: []core.GroupBy{{Dim: "Org", Level: "Division"}},
		Grain:   core.GrainYear,
		Mode:    core.TCM(),
	}
	drill := rollup
	drill.GroupBy = []core.GroupBy{{Dim: "Org", Level: "Department"}}
	drill.Grain = core.GrainQuarter
	version := rollup
	version.Mode = core.InVersion(s.VersionAt(temporal.Year(2003)))
	for _, leg := range []struct {
		name string
		s    *core.Schema
		q    core.Query
	}{{"rollup", s, rollup}, {"drill", s, drill}, {"version", s, version}, {"multi", multi, rollup}} {
		if _, err := leg.s.Execute(leg.q); err != nil { // build the rollup and resolution tables
			b.Fatal(err)
		}
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := leg.s.Execute(leg.q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkMartExtraction measures Figure-1 data-mart extraction.
func BenchmarkMartExtraction(b *testing.B) {
	w := workload.MustGenerate(sweepConfigs[1])
	for i := 0; i < b.N; i++ {
		mart, err := warehouse.ExtractMart(w.Schema, warehouse.MartSpec{Name: "all"})
		if err != nil {
			b.Fatal(err)
		}
		if mart.Facts().Len() == 0 {
			b.Fatal("empty mart")
		}
	}
}
