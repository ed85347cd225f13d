package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mvolap/internal/temporal"
)

// requireBitIdentical fails unless two results agree bit for bit:
// row order, group names and IDs, tuple counts, value bits (NaN
// patterns included), confidence factors and drop counts.
func requireBitIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Dropped != want.Dropped {
		t.Fatalf("%s: dropped %d, want %d", label, got.Dropped, want.Dropped)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	gotRows := got.Rows()
	for i, w := range want.Rows() {
		g := gotRows[i]
		if g.TimeKey != w.TimeKey || g.N != w.N {
			t.Fatalf("%s row %d: (%s,%d) vs (%s,%d)", label, i, g.TimeKey, g.N, w.TimeKey, w.N)
		}
		for k := range w.Groups {
			if g.Groups[k] != w.Groups[k] || g.GroupIDs[k] != w.GroupIDs[k] {
				t.Fatalf("%s row %d: groups %v/%v, want %v/%v", label, i, g.Groups, g.GroupIDs, w.Groups, w.GroupIDs)
			}
		}
		for k := range w.Values {
			if math.Float64bits(g.Values[k]) != math.Float64bits(w.Values[k]) {
				t.Fatalf("%s row %d value %d: bits %x vs %x", label, i, k,
					math.Float64bits(g.Values[k]), math.Float64bits(w.Values[k]))
			}
			if g.CFs[k] != w.CFs[k] {
				t.Fatalf("%s row %d: CFs differ", label, i)
			}
		}
	}
}

// executeUnpruned answers q as Execute does, but with zone-map pruning
// off: the scan reads every shard of the store, through the mode's
// resolution tables in a version mode.
func executeUnpruned(t *testing.T, s *Schema, q Query) *Result {
	t.Helper()
	p, err := s.planScan(q)
	if err != nil {
		t.Fatal(err)
	}
	p.unpruned = true
	res, err := s.execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPropertyPrunedCachedBitIdentical is the fast-path equivalence
// property: for randomized queries over an evolving schema — fact
// appends and structural mutations interleaved through clone-swap
// generations, exactly as the serving tier mutates — the production
// path (zone-map pruning on) returns results bit-identical to the same
// scan with pruning off. Every query runs in tcm or in a version mode,
// with random ranges, grains and dices, so shard skipping, the dice
// columns, the shared rollup caches and the reused structure-version
// restrictions all face the same answers as the unpruned scan.
func TestPropertyPrunedCachedBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := bigTCMSchema(t, 2*MappedShardSize+rng.Intn(MappedShardSize))

			divisions := []string{"Sales", "R&D"}
			grains := []TimeGrain{GrainAll, GrainYear, GrainQuarter, GrainMonth}
			randQuery := func() Query {
				q := Query{
					GroupBy: []GroupBy{{Dim: "Org", Level: "Division"}},
					Grain:   grains[rng.Intn(len(grains))],
					Mode:    TCM(),
				}
				if rng.Intn(2) == 0 {
					q.GroupBy[0].Level = "Department"
				}
				if rng.Intn(4) > 0 { // 75%: bounded range
					y1 := 2001 + rng.Intn(6)
					y2 := y1 + rng.Intn(2006-y1+1)
					q.Range = temporal.Between(temporal.Year(y1), temporal.YM(y2, 12))
				}
				if rng.Intn(3) == 0 {
					q.Filters = []Filter{{Dim: "Org", Members: []string{divisions[rng.Intn(len(divisions))]}}}
				}
				if rng.Intn(4) == 0 {
					if v := s.VersionAt(temporal.Year(2001 + rng.Intn(4))); v != nil {
						q.Mode = InVersion(v)
					}
				}
				return q
			}

			check := func(gen int, q Query) {
				want := executeUnpruned(t, s, q)
				got, err := s.Execute(q)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, fmt.Sprintf("gen %d mode %s", gen, q.Mode), got, want)
			}

			for gen := 0; gen < 6; gen++ {
				for i := 0; i < 4; i++ {
					check(gen, randQuery())
				}
				// Swap in a mutated clone, the serving tier's way.
				clone := s.Clone()
				switch rng.Intn(3) {
				case 0:
					// Facts append at a fresh late instant: the
					// zone-map time pruning case.
					for i := 0; i < 3; i++ {
						member := []Coords{{"Smith"}, {"Brian"}}[rng.Intn(2)]
						at := temporal.YM(2005+rng.Intn(2), 1+rng.Intn(12))
						if err := clone.InsertFact(member, at, float64(rng.Intn(1000))); err != nil {
							t.Fatal(err)
						}
					}
				case 1:
					// Additive structural change: fresh member, upward
					// edge only.
					d := clone.Dimension("Org")
					id := MVID(fmt.Sprintf("New%d-%d", seed, gen))
					valid := temporal.Since(temporal.YM(2004, 1+rng.Intn(12)))
					if err := d.AddVersion(&MemberVersion{ID: id, Member: string(id), Level: "Department", Valid: valid}); err != nil {
						t.Fatal(err)
					}
					if err := d.AddRelationship(TemporalRelationship{From: id, To: "Sales", Valid: valid}); err != nil {
						t.Fatal(err)
					}
				case 2:
					// Non-additive: truncate an existing relationship
					// (a reclassify-shaped rewiring).
					d := clone.Dimension("Org")
					d.EndRelationship("Brian", "R&D", temporal.YM(2004+gen, 6))
					valid := temporal.Since(temporal.YM(2004+gen, 7))
					if err := d.AddRelationship(TemporalRelationship{From: "Brian", To: "Sales", Valid: valid}); err != nil {
						t.Fatal(err)
					}
				}
				s = clone
			}
		})
	}
}

// TestPropertyStructureVersionReuseMatchesFresh pins the
// structure-version recompute reuse (invalidate stashes the previous
// generation; StructureVersions carries the versions that end before
// the mutation window): a schema that recomputes after every
// mutation must infer exactly the structure versions a from-scratch
// computation over the final state infers — IDs, intervals,
// signatures, and the full restricted member/relationship content.
func TestPropertyStructureVersionReuseMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		incremental := randomEvolvingSchema(seed)
		fresh := randomEvolvingSchema(seed)

		mutateBoth := func(f func(*Schema)) {
			f(incremental)
			f(fresh)
		}
		rng := rand.New(rand.NewSource(seed + 100))
		for step := 0; step < 5; step++ {
			// Warm the incremental schema's cache so the next mutation
			// has a previous generation to carry from; the fresh
			// schema never computes until the end.
			incremental.StructureVersions()
			id := MVID(fmt.Sprintf("extra%d-%d", seed, step))
			valid := temporal.Since(temporal.YM(2003+step, 1+rng.Intn(12)))
			mutateBoth(func(s *Schema) {
				d := s.Dimension("D")
				if err := d.AddVersion(&MemberVersion{ID: id, Member: string(id), Level: "Leaf", Valid: valid}); err != nil {
					t.Fatal(err)
				}
				if err := d.AddRelationship(TemporalRelationship{From: id, To: "root", Valid: valid}); err != nil {
					t.Fatal(err)
				}
			})
		}

		got := incremental.StructureVersions()
		want := fresh.StructureVersions()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d versions, want %d", seed, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.ID != w.ID || g.Valid != w.Valid || g.sig != w.sig {
				t.Fatalf("seed %d version %d: (%s %s) vs (%s %s)", seed, i, g.ID, g.Valid, w.ID, w.Valid)
			}
			gds, wds := g.Dimensions(), w.Dimensions()
			for j := range wds {
				gd, wd := gds[j], wds[j]
				gv, wv := gd.Versions(), wd.Versions()
				if len(gv) != len(wv) {
					t.Fatalf("seed %d %s dim %d: %d members, want %d", seed, g.ID, j, len(gv), len(wv))
				}
				for k := range wv {
					if gv[k].ID != wv[k].ID || gv[k].Valid != wv[k].Valid || gv[k].Level != wv[k].Level {
						t.Fatalf("seed %d %s dim %d member %d: %+v vs %+v", seed, g.ID, j, k, gv[k], wv[k])
					}
				}
				gr, wr := gd.Relationships(), wd.Relationships()
				if len(gr) != len(wr) {
					t.Fatalf("seed %d %s dim %d: %d rels, want %d", seed, g.ID, j, len(gr), len(wr))
				}
				for k := range wr {
					if gr[k] != wr[k] {
						t.Fatalf("seed %d %s dim %d rel %d: %+v vs %+v", seed, g.ID, j, k, gr[k], wr[k])
					}
				}
			}
		}
	}
}
