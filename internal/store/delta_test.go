package store

import (
	"context"
	"reflect"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/temporal"
	"mvolap/internal/workload"
)

// TestCommitDeltaRouting runs each single write through Commit on a nil
// store and checks the Delta it publishes, which is read off the clone:
// Reroutes stays clear for a fresh levelled member linked up, or linked
// under a member just as fresh, and is set by every write that can move
// a stored fact's rollup; a facts or retract batch carries the hull of
// its instants.
func TestCommitDeltaRouting(t *testing.T) {
	window := func(from, to temporal.Instant) core.Delta {
		return core.Delta{FactsWindow: temporal.Between(from, to), FactsWindowKnown: true}
	}
	reroutes := core.Delta{Reroutes: true}
	cases := []struct {
		name, kind, body string
		want             core.Delta
	}{
		{"levelled insert under parents", RecordEvolve,
			"INSERT Org Dpt.New_id Dpt.New LEVEL Department AT 01/2004 PARENTS Sales_id", core.Delta{}},
		{"fresh parent of a fresh child", RecordEvolve,
			"INSERT Org Dpt.New_id Dpt.New LEVEL Department AT 01/2004\n" +
				"INSERT Org Div.New_id Div.New LEVEL Division AT 01/2004 CHILDREN Dpt.New_id", core.Delta{}},
		{"insert over an existing child", RecordEvolve,
			"INSERT Org Div.New_id Div.New LEVEL Division AT 01/2004 CHILDREN Dpt.Smith_id", reroutes},
		{"unlevelled insert", RecordEvolve,
			"INSERT Org Dpt.New_id Dpt.New AT 01/2004 PARENTS Sales_id", reroutes},
		{"exclude", RecordEvolve, "EXCLUDE Org Dpt.Brian_id AT 01/2010", reroutes},
		{"reclassify", RecordEvolve, "RECLASSIFY Org Dpt.Brian_id AT 01/2004 FROM R&D_id TO Sales_id", reroutes},
		{"reclassify to the same parent", RecordEvolve,
			"RECLASSIFY Org Dpt.Brian_id AT 01/2004 FROM R&D_id TO R&D_id", reroutes},
		{"associate", RecordEvolve, "ASSOCIATE Dpt.Smith_id Dpt.Brian_id FORWARD - am BACKWARD - am", reroutes},
		{"facts batch", RecordFacts,
			`[{"coords":["Dpt.Smith_id"],"time":"03/2007","values":[5]},` +
				`{"coords":["Dpt.Brian_id"],"time":"2005","values":[1]}]`,
			window(temporal.YM(2005, 1), temporal.YM(2007, 3))},
		{"facts batch replacing", RecordFacts,
			`[{"coords":["Dpt.Smith_id"],"time":"2001","values":[5]}]`,
			window(temporal.YM(2001, 1), temporal.YM(2001, 1))},
		{"retract", RecordRetract,
			`[{"coords":["Dpt.Smith_id"],"time":"2001"},{"coords":["Dpt.Brian_id"],"time":"2002"}]`,
			window(temporal.YM(2001, 1), temporal.YM(2002, 1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := seedSchema(t)
			m, err := ParseMutation(tc.kind, []byte(tc.body), len(base.Measures()))
			if err != nil {
				t.Fatal(err)
			}
			c, err := (*Store)(nil).Commit(context.Background(), base, evolution.NewApplier(base), m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.Delta, tc.want) {
				t.Errorf("Delta = %+v, want %+v", c.Delta, tc.want)
			}
			if d := c.Schema.Clone().Delta(); !reflect.DeepEqual(d, core.Delta{}) {
				t.Errorf("a fresh clone of the result reports %+v, want nothing written", d)
			}
		})
	}
}

// TestCommitDeltaEvolveMixStream commits the evolution scripts of the
// benchmark's evolve_mix workload (its warehouse, OpGen seed 1) one by
// one and counts the writes that leave Reroutes clear: the generator's
// levelled INSERTs, not its RECLASSIFYs. 145 is also the count the
// evolution operators' own footprint declarations gave on this stream:
// reading the delta off the clone retains no less.
func TestCommitDeltaEvolveMixStream(t *testing.T) {
	w := workload.MustGenerate(workload.Config{
		Seed: 11, Divisions: 8, Departments: 500, Years: 6,
		EvolutionsPerYear: 20, FactsPerYear: 12, Measures: 2,
	})
	gen := workload.NewOpGen(1, workload.SurfaceOf(w.Schema), "")
	sch, ap := w.Schema, w.Applier
	kept := 0
	for i := 0; i < 200; i++ {
		script := gen.EvolveScript()
		m, err := ParseMutation(RecordEvolve, []byte(script), len(sch.Measures()))
		if err != nil {
			t.Fatal(err)
		}
		c, err := (*Store)(nil).Commit(context.Background(), sch, ap, m)
		if err != nil {
			t.Fatalf("%s: %v", script, err)
		}
		if c.Delta.FactsWindowKnown {
			t.Fatalf("%s: Delta %+v names a facts window", script, c.Delta)
		}
		if !c.Delta.Reroutes {
			kept++
		}
		sch, ap = c.Schema, c.Applier
	}
	if kept != 145 {
		t.Errorf("%d of 200 evolve_mix scripts leave Reroutes clear, want 145", kept)
	}
}
