package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mvolap/internal/temporal"
)

// requireMatchesNaive holds a derivation against the naive Def. 9
// oracle: the same intervals under the same positional IDs, and each
// signature equal to the hashes the oracle recomputes from D(t).
func requireMatchesNaive(t *testing.T, label string, s *Schema) ([]*StructureVersion, []naiveVersion) {
	t.Helper()
	got, want := s.StructureVersions(), naiveStructureVersions(s)
	if len(got) != len(want) {
		t.Fatalf("%s: %d versions, want %d\n got  %v\n want %v", label, len(got), len(want), got, want)
	}
	for i, w := range want {
		g := got[i]
		if g.ID != fmt.Sprintf("V%d", i+1) || g.Valid != w.valid {
			t.Fatalf("%s version %d: %s, want V%d %s", label, i, g, i+1, w.valid)
		}
		if h := naiveHashAt(s, g.Valid.Start); g.sig != h {
			t.Fatalf("%s %s: signature\n got  %s\n want %s", label, g, g.sig, h)
		}
		if i > 0 && (got[i-1].sig == g.sig) != (want[i-1].sig == w.sig) {
			t.Fatalf("%s: %s and %s have equal hashes %v, equal naive signatures %v",
				label, got[i-1], g, got[i-1].sig == g.sig, want[i-1].sig == w.sig)
		}
	}
	return got, want
}

// requireSameRollups compares the cached rollup of every member at
// every level name and every probe instant against a cold walk.
func requireSameRollups(t *testing.T, label string, warm, cold *Dimension, probes []temporal.Instant) {
	t.Helper()
	levels := []string{"Top", "Leaf", "depth-0", "depth-1"}
	for _, at := range probes {
		for _, id := range warm.order {
			for _, level := range levels {
				g := warm.ancestorsAtLevel(id, level, at)
				w := cold.ancestorsAtLevel(id, level, at)
				if len(g) != len(w) {
					t.Fatalf("%s: ancestors of %s at %s/%s: %d, want %d", label, id, level, at, len(g), len(w))
				}
				for k := range w {
					if g[k].ID != w[k].ID || g[k].DisplayName() != w[k].DisplayName() {
						t.Fatalf("%s: ancestor %d of %s at %s/%s: %s, want %s", label, k, id, level, at, g[k].ID, w[k].ID)
					}
				}
			}
		}
	}
}

// TestPropertyIncrementalStructureVersionsMatchFresh is the correctness
// property of per-dimension version chains: under random AddVersion /
// AddRelationship / SetEnd (truncating and extending) / EndRelationship
// / end-and-re-create of one edge at arbitrary instants — on version
// boundaries, several mutations between two derivations, lineages of
// clones that never derived, an unlevelled insert, in either of two
// dimensions — a lineage that re-sweeps only the mutated dimensions and
// takes rollup tables over by hash infers exactly what the naive oracle
// infers, and rolls every member up exactly as a cold dimension does.
// Equal hashes must mean equal naive signatures, between neighbours and
// between a version and its predecessor of the same ID and interval
// (the pair warm retention compares).
func TestPropertyIncrementalStructureVersionsMatchFresh(t *testing.T) {
	reused := 0
	for seed := int64(0); seed < 240; seed++ {
		r := rand.New(rand.NewSource(seed + 7000))
		inc := randomEvolvingSchema(seed)
		// A second, quieter dimension: a mutation in either one must show
		// in the joint partition.
		e := NewDimension("E", "E")
		for i, start := range []int{2000, 2002} {
			id := MVID(fmt.Sprintf("e%d", i))
			if err := e.AddVersion(&MemberVersion{ID: id, Level: "Top", Valid: temporal.Since(temporal.Year(start))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := inc.AddDimension(e); err != nil {
			t.Fatal(err)
		}

		// Version boundaries seen so far: half the mutations land exactly
		// on one.
		var boundaries []temporal.Instant
		derive := func(s *Schema) []*StructureVersion {
			svs := s.StructureVersions()
			boundaries = boundaries[:0]
			for _, sv := range svs {
				boundaries = append(boundaries, sv.Valid.Start)
				if sv.Valid.End != temporal.Now {
					boundaries = append(boundaries, sv.Valid.End, sv.Valid.End.Next())
				}
			}
			return svs
		}
		instant := func() temporal.Instant {
			if len(boundaries) > 0 && r.Intn(2) == 0 {
				return boundaries[r.Intn(len(boundaries))]
			}
			return temporal.YM(1998+r.Intn(11), 1+r.Intn(12))
		}
		probes := []temporal.Instant{temporal.Year(1999), temporal.Year(2001), temporal.YM(2003, 6), temporal.Year(2006), temporal.Year(2012)}

		derive(inc)
		prevSVs, prevNaive := requireMatchesNaive(t, fmt.Sprintf("seed %d", seed), inc.Clone())
		unlevelledAt := -1
		if seed%5 == 0 {
			unlevelledAt = r.Intn(14)
		}
		for step := 0; step < 14; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			d := inc.Dimension([]DimID{"D", "D", "D", "E"}[r.Intn(4)])
			members := d.Versions()
			kind := r.Intn(5)
			if step == unlevelledAt {
				kind = 5
			}
			switch kind {
			case 0, 5: // a new member, linked under a root where it can be
				start := instant()
				valid := temporal.Since(start)
				if r.Intn(2) == 0 {
					valid = temporal.Between(start, start+temporal.Instant(r.Intn(40)))
				}
				mv := &MemberVersion{ID: MVID(fmt.Sprintf("x%d-%d", seed, step)), Level: "Leaf", Valid: valid}
				if kind == 5 {
					mv.Level = ""
				}
				if err := d.AddVersion(mv); err != nil {
					t.Fatal(err)
				}
				if root := d.Version("root"); root != nil {
					if w := valid.Intersect(root.Valid); !w.Empty() {
						if err := d.AddRelationship(TemporalRelationship{From: mv.ID, To: "root", Valid: w}); err != nil {
							t.Fatal(err)
						}
					}
				}
			case 1: // a second parent over part of the common validity
				child := members[r.Intn(len(members))]
				parent := d.Version("root2")
				if parent == nil || child.Level == "Top" {
					break
				}
				w := child.Valid.Intersect(parent.Valid)
				w.Start = temporal.Max(w.Start, instant())
				if w.Empty() {
					break
				}
				if err := d.AddRelationship(TemporalRelationship{From: child.ID, To: parent.ID, Valid: w}); err != nil {
					t.Fatal(err)
				}
			case 2: // move an end, either way
				mv := members[r.Intn(len(members))]
				end := temporal.Max(mv.Valid.Start, instant())
				if r.Intn(5) == 0 {
					end = temporal.Now
				}
				if err := d.SetEnd(mv.ID, end); err != nil {
					t.Fatal(err)
				}
			case 3: // cut an edge
				if rels := d.Relationships(); len(rels) > 0 {
					rel := rels[r.Intn(len(rels))]
					d.EndRelationship(rel.From, rel.To, instant())
				}
			case 4: // RECLASSIFY … FROM p TO p: end an edge and re-create it at once
				if rels := d.Relationships(); len(rels) > 0 {
					rel := rels[r.Intn(len(rels))]
					at := instant()
					if !rel.Valid.Contains(at) || at == rel.Valid.Start {
						break
					}
					d.EndRelationship(rel.From, rel.To, at.Prev())
					rel.Valid.Start = at
					if err := d.AddRelationship(rel); err != nil {
						t.Fatal(err)
					}
				}
			}

			// The probe is a clone that never derived: it shares the
			// lineage's derived state, and with it whatever tables the new
			// chains take over by hash.
			probe := inc.Clone()
			svs, naive := requireMatchesNaive(t, label, probe)
			for i, v := range svs {
				for j, o := range prevSVs {
					if o.ID == v.ID && o.Valid == v.Valid && (o.sig == v.sig) != (prevNaive[j].sig == naive[i].sig) {
						t.Fatalf("%s: %s keeps hash equality %v with its predecessor, naive equality %v",
							label, v, o.sig == v.sig, prevNaive[j].sig == naive[i].sig)
					}
				}
			}
			prevSVs, prevNaive = svs, naive
			cold := coldClone(inc)
			for i, pd := range probe.dims {
				chain := pd.chain()
				for _, e := range chain {
					e.tables.levels.Range(func(any, any) bool {
						reused++ // built before this mutation, taken over by hash
						return false
					})
				}
				requireSameRollups(t, label, pd, cold.dims[i], probes)
			}

			// Derive on the lineage only sometimes, so several mutations
			// land between two sweeps; move the lineage onto a clone
			// sometimes, as the serving tier does on every write.
			if r.Intn(2) == 0 {
				derive(inc)
			}
			if r.Intn(3) == 0 {
				inc = inc.Clone()
			}
		}
	}
	if reused == 0 {
		t.Error("no rollup table was taken over by hash: the property ran on cold tables only")
	}
}

// TestChainConcurrentReaders runs what the serving tier runs: queries
// keep filling the published generation's rollup tables while a lineage
// of unpublished clones is mutated, each mutated clone's first sweep
// taking over the very tables the readers are building into. Its
// assertions are the race detector's.
func TestChainConcurrentReaders(t *testing.T) {
	base := randomEvolvingSchema(3)
	d := base.Dimension("D")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				at := temporal.YM(2000+i%8, 1+i%12)
				for _, id := range d.order {
					d.ancestorsAtLevel(id, "Top", at)
				}
			}
		}(g)
	}
	cur := base
	for i := 0; i < 60; i++ {
		clone := cur.Clone()
		cd := clone.Dimension("D")
		id := MVID(fmt.Sprintf("w%d", i))
		valid := temporal.Since(temporal.YM(2002+i%5, 1+i%12))
		if err := cd.AddVersion(&MemberVersion{ID: id, Level: "Leaf", Valid: valid}); err != nil {
			t.Fatal(err)
		}
		if err := cd.AddRelationship(TemporalRelationship{From: id, To: "root", Valid: valid}); err != nil {
			t.Fatal(err)
		}
		// The clone reads through tables it shares with the base.
		for _, at := range []temporal.Instant{temporal.Year(2001), temporal.Year(2008)} {
			if got := cd.ancestorsAtLevel("root", "Top", at); len(got) != 1 {
				t.Fatalf("root at %s rolls up to %d members", at, len(got))
			}
		}
		clone.StructureVersions()
		cur = clone
	}
	close(stop)
	wg.Wait()
}

// TestRollupTableReadsContentNotStorage: chain entries with the same
// hash share one set of rollup tables, so a table may depend on what
// D(t) holds only, never on the order its relationships were stored in.
// Here c's edge to q is stored before its edge to p in 2000 and after it
// from 2002 on, and both tops are called North, so the order of c's
// ancestors decides which one a cell reports.
func TestRollupTableReadsContentNotStorage(t *testing.T) {
	d := NewDimension("D", "D")
	for _, mv := range []*MemberVersion{
		{ID: "c", Level: "Leaf"},
		{ID: "p", Name: "North", Level: "Top"},
		{ID: "q", Name: "North", Level: "Top"},
	} {
		mv.Valid = temporal.Always
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []TemporalRelationship{
		{From: "c", To: "q", Valid: temporal.Between(y(2000), ym(2000, 12))},
		{From: "c", To: "p", Valid: temporal.Always},
		{From: "c", To: "q", Valid: temporal.Since(y(2002))},
	} {
		if err := d.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	chain := d.chain()
	if entryAt(chain, y(2000)).tables != entryAt(chain, y(2002)).tables {
		t.Fatal("two entries holding the same D(t) have separate tables")
	}
	for _, at := range []temporal.Instant{y(2002), y(2000)} {
		got, want := d.ancestorsAtLevel("c", "Top", at), d.ParentsAt("c", at)
		if fmt.Sprint(got) != fmt.Sprint(want) || want[0].ID != "p" {
			t.Errorf("at %s c rolls up to %v, its parents in member order are %v", at, got, want)
		}
	}
}
