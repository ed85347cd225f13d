package evolution_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/schemaio"
	"mvolap/internal/temporal"
)

// propSchema builds a small evolving warehouse with all three fold
// behaviours (Sum, Avg with contribution counts, Min) so the property
// test exercises every merge path.
func propSchema(t *testing.T, r *rand.Rand) *core.Schema {
	t.Helper()
	s := core.NewSchema("prop",
		core.Measure{Name: "amount", Agg: core.Sum},
		core.Measure{Name: "score", Agg: core.Avg},
		core.Measure{Name: "low", Agg: core.Min},
	)
	d := core.NewDimension("D", "D")
	add := func(id core.MVID, level string, valid temporal.Interval) {
		t.Helper()
		if err := d.AddVersion(&core.MemberVersion{ID: id, Level: level, Valid: valid}); err != nil {
			t.Fatal(err)
		}
	}
	add("top", "Top", temporal.Since(temporal.Year(2000)))
	for i := 0; i < 4; i++ {
		id := core.MVID(fmt.Sprintf("leaf%d", i))
		start := temporal.YM(2000+r.Intn(3), 1+r.Intn(12))
		add(id, "Leaf", temporal.Since(start))
		if err := d.AddRelationship(core.TemporalRelationship{
			From: id, To: "top", Valid: temporal.Since(start),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	return s
}

// randomFactBatch inserts 1..6 random facts into the clone, at times
// chosen so collisions (replacements) occasionally happen.
func randomFactBatch(t *testing.T, r *rand.Rand, clone *core.Schema) {
	t.Helper()
	d := clone.Dimensions()[0]
	var leaves []*core.MemberVersion
	for _, mv := range d.Versions() {
		if mv.Level == "Leaf" {
			leaves = append(leaves, mv)
		}
	}
	n := 1 + r.Intn(6)
	for i := 0; i < n; i++ {
		mv := leaves[r.Intn(len(leaves))]
		at := mv.Valid.Start + temporal.Instant(r.Intn(48))
		if !mv.ValidAt(at) {
			continue
		}
		vals := []float64{float64(r.Intn(200)), float64(r.Intn(10)), float64(r.Intn(50))}
		if r.Intn(12) == 0 {
			vals[1] = math.NaN() // exercise NaN folding in Avg
		}
		if err := clone.InsertFact(core.Coords{mv.ID}, at, vals...); err != nil {
			t.Fatal(err)
		}
	}
}

// randomOps builds a 1..2 operator evolution batch against the clone's
// current members.
func randomOps(r *rand.Rand, clone *core.Schema) []evolution.Op {
	d := clone.Dimensions()[0]
	versions := d.Versions()
	var ops []evolution.Op
	n := 1 + r.Intn(2)
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0: // insert a fresh leaf
			id := core.MVID(fmt.Sprintf("n%d-%d", r.Intn(1000), len(versions)))
			ops = append(ops, evolution.Insert{
				Dim: "D", ID: id, Name: string(id), Level: "Leaf",
				Start:   temporal.YM(2002+r.Intn(4), 1+r.Intn(12)),
				Parents: []core.MVID{"top"},
			})
		case 1: // exclude an existing leaf somewhere inside its validity
			mv := versions[r.Intn(len(versions))]
			if mv.ID == "top" {
				continue
			}
			at := mv.Valid.Start + temporal.Instant(1+r.Intn(60))
			if holdsFactFrom(clone, mv.ID, at) {
				continue // refused: a fact would outlive its member (Definition 5)
			}
			ops = append(ops, evolution.Exclude{Dim: "D", ID: mv.ID, At: at})
		case 2: // associate two distinct members
			a := versions[r.Intn(len(versions))]
			b := versions[r.Intn(len(versions))]
			if a.ID == b.ID || a.ID == "top" || b.ID == "top" {
				continue
			}
			fn := core.Mapper(core.Identity)
			cf := core.ExactMapping
			if r.Intn(2) == 0 {
				fn = core.Linear{K: 0.5}
				cf = core.ApproxMapping
			}
			ops = append(ops, evolution.Associate{Mapping: core.MappingRelationship{
				From:     a.ID,
				To:       b.ID,
				Forward:  core.UniformMapping(3, fn, cf),
				Backward: core.UniformMapping(3, core.Identity, core.ExactMapping),
			}})
		case 3: // reclassify: end and recreate the leaf's link to top
			mv := versions[r.Intn(len(versions))]
			if mv.ID == "top" {
				continue
			}
			ops = append(ops, evolution.Reclassify{
				Dim: "D", ID: mv.ID,
				Start:      mv.Valid.Start + temporal.Instant(1+r.Intn(36)),
				OldParents: []core.MVID{"top"},
				NewParents: []core.MVID{"top"},
			})
		}
	}
	return ops
}

// holdsFactFrom reports whether s stores a fact on member version id at
// or after at, which an Exclude of id at at would leave past its end.
func holdsFactFrom(s *core.Schema, id core.MVID, at temporal.Instant) bool {
	held := false
	s.Facts().All(func(f *core.Fact) bool {
		held = f.Coords[0] == id && f.Time >= at
		return !held
	})
	return held
}

// propQueries are the questions the lineage properties ask in every
// mode: grand totals by year, the leaves, and the top by quarter.
var propQueries = []core.Query{
	{Grain: core.GrainYear},
	{GroupBy: []core.GroupBy{{Dim: "D", Level: "Leaf"}}, Grain: core.GrainAll},
	{GroupBy: []core.GroupBy{{Dim: "D", Level: "Top"}}, Grain: core.GrainQuarter},
}

// renderAnswers renders every answer of propQueries in every mode of s,
// values by their bits.
func renderAnswers(t *testing.T, s *core.Schema) []string {
	t.Helper()
	var out []string
	for _, m := range s.Modes() {
		for _, q := range propQueries {
			q.Mode = m
			res, err := s.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%s dropped %d\n", m, res.Dropped)
			for _, r := range res.Rows() {
				fmt.Fprintf(&b, "%s %v n=%d", r.TimeKey, r.GroupIDs, r.N)
				for k, v := range r.Values {
					fmt.Fprintf(&b, " %x/%v", math.Float64bits(v), r.CFs[k])
				}
				b.WriteByte('\n')
			}
			out = append(out, b.String())
		}
	}
	return out
}

// structureCopy writes s's structure out and reads it back, with an
// empty fact table: it shares no chain, rollup or resolution table with
// s's lineage.
func structureCopy(t *testing.T, s *core.Schema) *core.Schema {
	t.Helper()
	var buf bytes.Buffer
	if err := schemaio.WriteStructure(&buf, s); err != nil {
		t.Fatal(err)
	}
	cold, err := schemaio.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return cold
}

// snapshotCopy is s as a snapshot carries it: the structure document,
// then the facts section (core.EncodeFacts) decoded into it.
func snapshotCopy(t *testing.T, s *core.Schema) *core.Schema {
	t.Helper()
	back := structureCopy(t, s)
	if err := core.DecodeFacts(core.EncodeFacts(s), back); err != nil {
		t.Fatal(err)
	}
	return back
}

// coldCopy is s's structure with its facts copied in, in order: the
// same warehouse, sharing no chain, rollup or resolution table with s's
// lineage.
func coldCopy(t *testing.T, s *core.Schema) *core.Schema {
	t.Helper()
	cold := structureCopy(t, s)
	// Straight into the fact table, in the source's order.
	s.Facts().All(func(f *core.Fact) bool {
		if err := cold.Facts().Insert(f.Coords, f.Time, f.Values...); err != nil {
			t.Fatal(err)
		}
		return true
	})
	return cold
}

// oracleRow is one year's grand total as oracleYearTotals computes it.
type oracleRow struct {
	accs []*core.Accumulator
	cfs  []core.Confidence
	n    int
}

// oracleYearTotals answers "grand total by year" in mode m the obvious
// way, from the facts and the mapping relationships alone: each fact's
// coordinate presents among the version's leaves by a breadth-first
// walk of the mappings (forward through Forward, backward through
// Backward, stopping at the first leaf on each path), presentations on
// one (leaf, instant) merge — Sum adds, Min keeps the least, Avg takes
// the mean of the non-NaN contributions — and the merged tuples fold
// into their year. dropped counts the facts no walk presents.
func oracleYearTotals(s *core.Schema, m core.Mode) (map[string]*oracleRow, int) {
	nm, alg := len(s.Measures()), s.ConfidenceAlgebra()
	type tuple struct {
		at      temporal.Instant
		contrib [][]float64
		cfs     []core.Confidence
	}
	type step struct {
		id  core.MVID
		fns [][]core.Mapper
		cfs []core.Confidence
	}
	merged := map[string]*tuple{}
	var order []*tuple
	dropped := 0
	s.Facts().All(func(f *core.Fact) bool {
		self := step{id: f.Coords[0], fns: make([][]core.Mapper, nm), cfs: make([]core.Confidence, nm)}
		found := []step{self}
		if m.Kind == core.VersionKind {
			leaf := map[core.MVID]bool{}
			for _, mv := range m.Version.Dimension("D").LeavesAt(m.Version.Valid.Start) {
				leaf[mv.ID] = true
			}
			if !leaf[self.id] {
				found = nil
				seen := map[core.MVID]bool{self.id: true}
				for frontier := []step{self}; len(frontier) > 0; {
					var next []step
					for _, at := range frontier {
						walk := func(to core.MVID, mms []core.MeasureMapping) {
							if seen[to] {
								return
							}
							seen[to] = true
							st := step{id: to, fns: make([][]core.Mapper, nm), cfs: make([]core.Confidence, nm)}
							for k, mm := range mms {
								st.fns[k] = append(append([]core.Mapper(nil), at.fns[k]...), mm.Fn)
								st.cfs[k] = alg.Combine(at.cfs[k], mm.CF)
							}
							if leaf[to] {
								found = append(found, st)
							} else {
								next = append(next, st)
							}
						}
						for _, r := range s.Mappings() {
							if r.From == at.id {
								walk(r.To, r.Forward)
							}
						}
						for _, r := range s.Mappings() {
							if r.To == at.id {
								walk(r.From, r.Backward)
							}
						}
					}
					frontier = next
				}
			}
		}
		if len(found) == 0 {
			dropped++
			return true
		}
		for _, st := range found {
			key := fmt.Sprint(st.id, "@", f.Time)
			tu := merged[key]
			if tu == nil {
				tu = &tuple{at: f.Time, contrib: make([][]float64, nm), cfs: make([]core.Confidence, nm)}
				merged[key] = tu
				order = append(order, tu)
				for k := range tu.cfs {
					tu.cfs[k] = alg.Combine(core.SourceData, st.cfs[k])
				}
			} else {
				for k := range tu.cfs {
					tu.cfs[k] = alg.Combine(tu.cfs[k], alg.Combine(core.SourceData, st.cfs[k]))
				}
			}
			for k, v := range f.Values {
				for _, fn := range st.fns[k] {
					var ok bool
					if v, ok = fn.Map(v); !ok {
						v = math.NaN()
					}
				}
				if !math.IsNaN(v) {
					tu.contrib[k] = append(tu.contrib[k], v)
				}
			}
		}
		return true
	})
	rows := map[string]*oracleRow{}
	for _, tu := range order {
		year := fmt.Sprint(tu.at.YearOf())
		row := rows[year]
		if row == nil {
			row = &oracleRow{cfs: append([]core.Confidence(nil), tu.cfs...)}
			for _, ms := range s.Measures() {
				row.accs = append(row.accs, core.NewAccumulator(ms.Agg))
			}
			rows[year] = row
		} else {
			for k := range row.cfs {
				row.cfs[k] = alg.Combine(row.cfs[k], tu.cfs[k])
			}
		}
		row.n++
		for k, vs := range tu.contrib {
			if len(vs) == 0 {
				row.accs[k].Add(math.NaN())
				continue
			}
			v := vs[0]
			for _, w := range vs[1:] {
				switch s.Measures()[k].Agg {
				case core.Sum, core.Avg:
					v += w
				case core.Min:
					v = math.Min(v, w)
				}
			}
			if s.Measures()[k].Agg == core.Avg {
				v /= float64(len(vs))
			}
			row.accs[k].Add(v)
		}
	}
	return rows, dropped
}

// assertAnswersMatch holds one lineage generation to a cold copy of its
// warehouse and to the warehouse its snapshot reloads, bit for bit over
// propQueries in every mode, and its grand totals by year to the
// oracle: rows, N, confidences, Dropped and values — exactly, but for
// Avg, whose merged means the oracle sums in another order, to a
// relative 1e-12.
func assertAnswersMatch(t *testing.T, step int, s *core.Schema) {
	t.Helper()
	got := renderAnswers(t, s)
	for _, c := range []struct {
		name string
		s    *core.Schema
	}{{"a cold copy", coldCopy(t, s)}, {"its snapshot", snapshotCopy(t, s)}} {
		want := renderAnswers(t, c.s)
		if len(got) != len(want) {
			t.Fatalf("step %d: %d answers, %s gives %d", step, len(got), c.name, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: lineage answers\n%s\n%s answers\n%s", step, got[i], c.name, want[i])
			}
		}
	}
	for _, m := range s.Modes() {
		res, err := s.Execute(core.Query{Grain: core.GrainYear, Mode: m})
		if err != nil {
			t.Fatal(err)
		}
		rows, dropped := oracleYearTotals(s, m)
		if res.Dropped != dropped || res.Len() != len(rows) {
			t.Fatalf("step %d mode %s: %d rows, %d dropped; the oracle has %d, %d", step, m, res.Len(), res.Dropped, len(rows), dropped)
		}
		for _, r := range res.Rows() {
			o := rows[r.TimeKey]
			if o == nil || r.N != o.n || fmt.Sprint(r.CFs) != fmt.Sprint(o.cfs) {
				t.Fatalf("step %d mode %s year %s: n=%d cfs %v; the oracle has %+v", step, m, r.TimeKey, r.N, r.CFs, o)
			}
			for k, v := range r.Values {
				w := o.accs[k].Value()
				same := math.Float64bits(v) == math.Float64bits(w)
				if s.Measures()[k].Agg == core.Avg && !same {
					same = math.Abs(v-w) <= 1e-12*math.Abs(w)
				}
				if !same {
					t.Fatalf("step %d mode %s year %s measure %d: %v; the oracle has %v", step, m, r.TimeKey, k, v, w)
				}
			}
		}
	}
}

// TestIncrementalMatchesColdRebuild is the lineage property of the
// write path: across a randomized interleaving of fact batches and
// evolution scripts, each generation of a warehouse maintained by
// clone-swaps — rollup and resolution tables carried by chain-entry
// hash, nothing else — answers in every mode like a cold copy of its
// warehouse and like the oracle.
func TestIncrementalMatchesColdRebuild(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			cur := propSchema(t, r)
			applier := evolution.NewApplier(cur)

			const steps = 24
			for step := 0; step < steps; step++ {
				// Ask everything, so there are tables to carry.
				renderAnswers(t, cur)
				clone := cur.Clone()
				next := applier
				if r.Intn(10) < 7 {
					randomFactBatch(t, r, clone)
					next = applier.Rebind(clone)
				} else {
					reb := applier.Rebind(clone)
					if err := reb.Apply(randomOps(r, clone)...); err != nil {
						continue // failed batch: clone discarded, like the server's 422
					}
					next = reb
				}
				assertAnswersMatch(t, step, clone)
				cur, applier = clone, next
			}
		})
	}
}
