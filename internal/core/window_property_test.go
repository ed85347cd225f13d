package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"mvolap/internal/temporal"
)

// requireSameStructureVersions compares two derivations version by
// version: positional IDs, intervals, signatures, and the member and
// relationship identities of every restricted dimension.
// Validities inside the restrictions are deliberately not compared — a
// carried version restricts the dimensions of the generation that
// derived it, which may predate a later SetEnd of one of its members;
// that cannot matter inside the version's own interval.
func requireSameStructureVersions(t *testing.T, label string, got, want []*StructureVersion) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d versions, want %d\n got  %v\n want %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Valid != w.Valid {
			t.Fatalf("%s version %d: %s, want %s", label, i, g, w)
		}
		if g.sig != w.sig {
			t.Fatalf("%s %s: signature\n got  %q\n want %q", label, g, g.sig, w.sig)
		}
		gds, wds := g.Dimensions(), w.Dimensions()
		if len(gds) != len(wds) {
			t.Fatalf("%s %s: %d dimensions, want %d", label, g, len(gds), len(wds))
		}
		for j := range wds {
			gd, wd := gds[j], wds[j]
			if gd.ID != wd.ID || fmt.Sprint(gd.order) != fmt.Sprint(wd.order) {
				t.Fatalf("%s %s dim %s: members %v, want %v", label, g, wd.ID, gd.order, wd.order)
			}
			// Relationships compare as sets: a carried restriction lists
			// an edge that was ended and re-created inside one window at
			// its old position, a fresh one at its new position.
			if gr, wr := relationshipSet(gd), relationshipSet(wd); fmt.Sprint(gr) != fmt.Sprint(wr) {
				t.Fatalf("%s %s dim %s: relationships %v, want %v", label, g, wd.ID, gr, wr)
			}
		}
	}
}

func relationshipSet(d *Dimension) []string {
	out := make([]string, len(d.rels))
	for i, r := range d.rels {
		out[i] = string(r.From) + ">" + string(r.To)
	}
	sort.Strings(out)
	return out
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

// TestPropertyIncrementalStructureVersionsMatchFresh is the
// correctness property of window-scoped derivation: under random
// AddVersion / AddRelationship / SetEnd (truncating and extending) /
// EndRelationship / end-and-re-create of one edge at arbitrary instants
// — before every existing version, exactly on a version boundary,
// several mutations between two derivations, lineages of clones that
// never derived, an unlevelled insert — a schema that carries structure
// versions and rollup sub-caches across each mutation infers exactly
// what a schema with no previous generation infers, and rolls every
// member up exactly as a cold dimension does.
func TestPropertyIncrementalStructureVersionsMatchFresh(t *testing.T) {
	carriedBefore := metStructureVersionsCarried.Value()
	instantsBefore := metRollupInstantsCarried.Value()
	for seed := int64(0); seed < 240; seed++ {
		r := rand.New(rand.NewSource(seed + 7000))
		inc := randomEvolvingSchema(seed)
		// A second, quieter dimension: a mutation in either one must
		// recompute versions that the other alone would have carried.
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
		// on one, the case the one-instant-short carry rule exists for.
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

			// The probe is a clone that never derived: it inherits the
			// lineage's previous generation and window, and shares its
			// rollup sub-caches.
			probe := inc.Clone()
			fresh := inc.Clone()
			fresh.svCache, fresh.svPrev = nil, nil
			requireSameStructureVersions(t, label, probe.StructureVersions(), fresh.StructureVersions())
			for _, pd := range probe.dims {
				cold := pd.Clone()
				cold.derived = &dimDerived{}
				requireSameRollups(t, label, pd, cold, probes)
			}

			// Derive on the lineage only sometimes, so windows of several
			// mutations accumulate; move the lineage onto a clone
			// sometimes, as the serving tier does on every write.
			if r.Intn(2) == 0 {
				derive(inc)
			}
			if r.Intn(3) == 0 {
				inc = inc.Clone()
			}
		}
	}
	if metStructureVersionsCarried.Value() == carriedBefore {
		t.Error("no derivation carried a structure version: the property ran on the full path only")
	}
	if metRollupInstantsCarried.Value() == instantsBefore {
		t.Error("no mutation kept a rollup sub-cache: the property ran on cold caches only")
	}
}

// TestMutationWindowConcurrentReaders runs what the serving tier runs:
// queries keep filling the published generation's rollup cache while a
// lineage of unpublished clones is mutated, each mutation building its
// new cache from the very map (and sharing the very sub-caches) the
// readers are writing into. Its assertions are the race detector's.
func TestMutationWindowConcurrentReaders(t *testing.T) {
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
		// The clone reads through sub-caches it shares with the base.
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
