package evolution_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/temporal"
)

// randomRetractBatch retracts 1..3 distinct existing facts from the
// clone; false means the table was empty and nothing was retracted.
func randomRetractBatch(t *testing.T, r *rand.Rand, clone *core.Schema) bool {
	t.Helper()
	all := clone.Facts().Facts()
	if len(all) == 0 {
		return false
	}
	n := 1 + r.Intn(3)
	if n > len(all) {
		n = len(all)
	}
	// Capture the picks up front: retraction splices the table the
	// slice views.
	picks := make([]*core.Fact, 0, n)
	for _, i := range r.Perm(len(all))[:n] {
		picks = append(picks, all[i])
	}
	for _, f := range picks {
		if _, err := clone.RetractFact(f.Coords, f.Time); err != nil {
			t.Fatalf("retract %v@%v: %v", f.Coords, f.Time, err)
		}
	}
	return true
}

// TestRetractionMatchesColdRebuild extends the lineage property to
// retractions: across a randomized interleaving of fact batches,
// retraction batches and evolution scripts, each generation answers in
// every mode like a cold copy of its warehouse and like the oracle. The
// schema carries Sum, Avg and Min measures, so retracting one
// contribution of a merged tuple exercises every merge rule.
func TestRetractionMatchesColdRebuild(t *testing.T) {
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
				switch roll := r.Intn(10); {
				case roll < 4:
					randomFactBatch(t, r, clone)
					next = applier.Rebind(clone)
				case roll < 8:
					if !randomRetractBatch(t, r, clone) {
						randomFactBatch(t, r, clone)
					}
					next = applier.Rebind(clone)
				default:
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

// retractSchema builds the directed fixture for the subtraction fast
// path: Sum and Avg measures only (both invertible), members A and B
// where A's validity ends with 2002 and an identity mapping A → B, so
// the post-exclusion structure version presents A's facts at B —
// merged with B's own source tuple at the shared instant. The
// mapped-source fact is inserted FIRST and the native fact SECOND, so
// retracting the native contribution leaves the cell's creation order
// identical to a cold rebuild over the survivors.
func retractSchema(t *testing.T) *core.Schema {
	t.Helper()
	s := core.NewSchema("retr",
		core.Measure{Name: "amount", Agg: core.Sum},
		core.Measure{Name: "score", Agg: core.Avg},
	)
	d := core.NewDimension("D", "D")
	add := func(id core.MVID, level string, valid temporal.Interval) {
		t.Helper()
		if err := d.AddVersion(&core.MemberVersion{ID: id, Level: level, Valid: valid}); err != nil {
			t.Fatal(err)
		}
	}
	start := temporal.YM(2001, 1)
	add("top", "Top", temporal.Since(start))
	add("A", "Leaf", temporal.Between(start, temporal.YM(2002, 12)))
	add("B", "Leaf", temporal.Since(start))
	for _, rel := range []core.TemporalRelationship{
		{From: "A", To: "top", Valid: temporal.Between(start, temporal.YM(2002, 12))},
		{From: "B", To: "top", Valid: temporal.Since(start)},
	} {
		if err := d.AddRelationship(rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	if err := s.AddMapping(core.MappingRelationship{
		From:     "A",
		To:       "B",
		Forward:  core.UniformMapping(2, core.Identity, core.ExactMapping),
		Backward: core.UniformMapping(2, core.Identity, core.ExactMapping),
	}); err != nil {
		t.Fatal(err)
	}
	// Integer values with exact sums: the subtraction below is exact in
	// float64, so bit-identity with the cold rebuild is guaranteed.
	for _, f := range []struct {
		id   core.MVID
		at   temporal.Instant
		vals []float64
	}{
		{"A", temporal.YM(2001, 6), []float64{10, 4}}, // mapped source, first
		{"B", temporal.YM(2001, 6), []float64{20, 6}}, // native, second
		{"B", temporal.YM(2002, 1), []float64{7, 3}},  // untouched bystander
	} {
		if err := s.InsertFact(core.Coords{f.id}, f.at, f.vals...); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestRetractionSumAvgSubtractsInPlace pins retraction out of a merged
// tuple: retracting B's native contribution to the tuple A's mapped
// fact shares with it in the post-exclusion version leaves that tuple
// holding exactly the mapped contribution — its values, its confidence
// and one source — in every answer, with nothing materialized, and
// every mode answers like a cold copy and the oracle.
func TestRetractionSumAvgSubtractsInPlace(t *testing.T) {
	base := retractSchema(t)
	modes := base.Modes()
	if len(modes) != 3 { // tcm + pre-exclusion + post-exclusion versions
		t.Fatalf("fixture has %d modes, want 3", len(modes))
	}
	post := base.VersionAt(temporal.YM(2003, 6))
	if post == nil {
		t.Fatal("no structure version after A's exclusion")
	}
	june := core.Query{
		GroupBy: []core.GroupBy{{Dim: "D", Level: "Leaf"}},
		Grain:   core.GrainMonth,
		Range:   temporal.Between(temporal.YM(2001, 6), temporal.YM(2001, 6)),
	}
	cell := func(s *core.Schema) *core.Row {
		t.Helper()
		q := june
		q.Mode = core.InVersion(s.VersionByID(post.ID))
		res, err := s.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || res.Rows()[0].GroupIDs[0] != "B" {
			t.Fatalf("June 2001 in %s = %+v, want B's one row", post.ID, res.Rows())
		}
		return res.Rows()[0]
	}
	// Sanity: the post-exclusion version really merges A's mapped fact
	// with B's native one into one tuple.
	if r := cell(base); r.N != 1 || r.Values[0] != 30 || r.Values[1] != 5 {
		t.Fatalf("merged tuple = %+v; want one tuple, amount 30, score 5", r)
	}

	clone := base.Clone()
	if _, err := clone.RetractFact(core.Coords{"B"}, temporal.YM(2001, 6)); err != nil {
		t.Fatal(err)
	}
	if delta := clone.Delta(); !delta.FactsWindowKnown {
		t.Fatal("retraction delta must carry a known facts window")
	}
	assertAnswersMatch(t, 0, clone)
	r := cell(clone)
	if r.N != 1 || r.Values[0] != 10 || r.Values[1] != 4 {
		t.Fatalf("tuple after the retraction = %+v; want one tuple, amount 10, score 4", r)
	}
	if r.CFs[0] != core.ExactMapping || r.CFs[1] != core.ExactMapping {
		t.Fatalf("tuple CFs = %v; want em, the mapped contribution's", r.CFs)
	}
	if n := clone.Facts().Len(); n != 2 {
		t.Fatalf("tcm has %d tuples after retraction, want 2", n)
	}
	if r := cell(base); r.N != 1 || r.Values[0] != 30 {
		t.Fatalf("the base generation's tuple changed to %+v", r)
	}
}
