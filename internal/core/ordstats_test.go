package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mvolap/internal/temporal"
)

// requireOrdStatsRecounted fails unless every ordinal's stats in s's
// fact table are what a recount over All() gives: the live tuples that
// hold it at each coordinate position and, while there are any, the
// hull of their instants, exactly.
func requireOrdStatsRecounted(t *testing.T, label string, s *Schema) {
	t.Helper()
	ft := s.facts
	want := make([][]ordStat, ft.nd)
	for i, d := range ft.dims {
		want[i] = make([]ordStat, len(d.order))
	}
	ft.All(func(f *Fact) bool {
		at := temporal.Between(f.Time, f.Time)
		for i, id := range f.Coords {
			st := &want[i][ft.dims[i].members[id].ord]
			if st.live == 0 {
				st.instants = at
			} else {
				st.instants = st.instants.Hull(at)
			}
			st.live++
		}
		return true
	})
	for i := range want {
		for o, w := range want[i] {
			got := ft.ordStat(i, int32(o))
			if got.live != w.live || w.live > 0 && got.instants != w.instants {
				t.Fatalf("%s: dimension %d ordinal %d: %d live in %v; a recount has %d in %v", label, i, o, got.live, got.instants, w.live, w.instants)
			}
		}
	}
}

// TestPropertyOrdStatsMatchRecount: after every write of a lineage —
// inserts, corrections, retractions, the compactions they set off, and
// clones that go on writing while their source is kept — every ordinal
// stat of the written generation equals a recount over its live facts,
// and every kept generation's stats still equal its own recount. Two
// dimensions, so the stats are checked per coordinate position, and a
// key space small enough that corrections and retractions leave more
// than half of the table's slots dead, which compacts it.
func TestPropertyOrdStatsMatchRecount(t *testing.T) {
	const steps, months = 6000, 24
	s := NewSchema("stats", Measure{Name: "m", Agg: Sum})
	for _, dim := range []struct {
		id DimID
		n  int
	}{{"D", 16}, {"E", 2}} {
		d := NewDimension(dim.id, string(dim.id))
		for k := 0; k < dim.n; k++ {
			id := MVID(fmt.Sprintf("%s%d", dim.id, k))
			if err := d.AddVersion(&MemberVersion{ID: id, Level: "Member", Valid: temporal.Since(temporal.Origin)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AddDimension(d); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(1))
	key := func() (Coords, temporal.Instant) {
		return Coords{MVID(fmt.Sprintf("D%d", r.Intn(16))), MVID(fmt.Sprintf("E%d", r.Intn(2)))}, temporal.Instant(r.Intn(months))
	}
	compactions := metFactCompactions.Value()
	var kept []*Schema
	for step := 0; step < steps; step++ {
		c, at := key()
		switch op := r.Intn(100); {
		case op < 3:
			// A clone takes the lineage over; its source is kept, and
			// must not see the clone's writes.
			kept = append(kept, s)
			s = s.Clone()
			continue
		case op < 45:
			if _, ok := s.facts.Retract(c, at); ok {
				break
			}
			fallthrough
		default:
			// A fresh key or a correction of a live one.
			if err := s.facts.Insert(c, at, float64(step)); err != nil {
				t.Fatal(err)
			}
		}
		requireOrdStatsRecounted(t, fmt.Sprintf("step %d", step), s)
	}
	for k, g := range kept {
		requireOrdStatsRecounted(t, fmt.Sprintf("kept generation %d", k), g)
	}
	if metFactCompactions.Value() == compactions {
		t.Fatal("no write compacted the table; the run does not reach compaction")
	}
}

// TestOrdStatsConcurrentFirstRead: on a freshly written generation, whose
// ordinal stats are not derived yet, eight readers at once run every
// query in every mode and CanEndVersion on every leaf, each racing for
// the first derivation, and every answer, Dropped count and refusal is
// a serial run's on a twin generation. The derived stats then pass to a
// clone, and its first write drops them.
func TestOrdStatsConcurrentFirstRead(t *testing.T) {
	base := oracleSchema(t, 1)
	var first Fact
	base.facts.All(func(f *Fact) bool {
		first = Fact{Coords: f.Coords.Clone(), Time: f.Time}
		return false
	})
	written := func() *Schema {
		c := base.Clone()
		if _, err := c.RetractFact(first.Coords, first.Time); err != nil {
			t.Fatal(err)
		}
		return c
	}
	queries := []Query{
		{Grain: GrainYear},
		{GroupBy: []GroupBy{{Dim: "A", Level: "Leaf"}}, Grain: GrainAll},
		{GroupBy: []GroupBy{{Dim: "A", Level: "Top"}, {Dim: "B", Level: "depth-1"}}, Grain: GrainQuarter},
	}
	leaves := base.Dimension("A").LeavesAt(ym(2002, 6))
	type answers struct {
		results []*Result
		refusal []string
	}
	run := func(s *Schema) (out answers, err error) {
		for _, m := range s.Modes() {
			for _, q := range queries {
				q.Mode = m
				res, err := s.Execute(q)
				if err != nil {
					return out, err
				}
				out.results = append(out.results, res)
			}
		}
		for _, mv := range leaves {
			out.refusal = append(out.refusal, fmt.Sprint(s.CanEndVersion("A", mv.ID, ym(2002, 6))))
		}
		return out, nil
	}
	want, err := run(written())
	if err != nil {
		t.Fatal(err)
	}
	s := written()
	if s.facts.stats.Load() != nil {
		t.Fatal("a freshly written generation holds ordinal stats")
	}
	const readers = 8
	got := make([]answers, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = run(s)
		}()
	}
	wg.Wait()
	for k := range got {
		if errs[k] != nil {
			t.Fatalf("reader %d: %v", k, errs[k])
		}
		for i, res := range got[k].results {
			requireBitIdentical(t, fmt.Sprintf("reader %d answer %d", k, i), res, want.results[i])
		}
		for i, e := range got[k].refusal {
			if e != want.refusal[i] {
				t.Fatalf("reader %d: CanEndVersion(%s) = %s, serially %s", k, leaves[i].ID, e, want.refusal[i])
			}
		}
	}

	stats := s.facts.stats.Load()
	if stats == nil {
		t.Fatal("no reader kept the derived stats")
	}
	c := s.Clone()
	if c.facts.stats.Load() != stats {
		t.Fatal("a clone does not share its source's derived stats")
	}
	if err := c.InsertFact(first.Coords, first.Time, 1, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if c.facts.stats.Load() != nil || s.facts.stats.Load() != stats {
		t.Fatal("a clone's write must drop its own stats and keep its source's")
	}
}
