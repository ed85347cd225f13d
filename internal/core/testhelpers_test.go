package core

import (
	"fmt"
	"math/rand"

	"mvolap/internal/temporal"
)

// randomEvolvingSchema builds a deterministic pseudo-random schema whose
// dimension members appear and disappear at random instants, producing a
// non-trivial set of structure versions. Used by property tests.
func randomEvolvingSchema(seed int64) *Schema {
	r := rand.New(rand.NewSource(seed))
	s := NewSchema("random", Measure{Name: "m", Agg: Sum})
	d := NewDimension("D", "D")

	// A root that always exists plus a second root appearing later.
	mustAdd := func(mv *MemberVersion) {
		if err := d.AddVersion(mv); err != nil {
			panic(err)
		}
	}
	mustRel := func(rel TemporalRelationship) {
		if err := d.AddRelationship(rel); err != nil {
			panic(err)
		}
	}
	mustAdd(&MemberVersion{ID: "root", Level: "Top", Valid: temporal.Since(temporal.Year(2000))})
	mustAdd(&MemberVersion{ID: "root2", Level: "Top", Valid: temporal.Since(temporal.Year(2000 + r.Intn(5)))})

	n := 2 + r.Intn(8)
	for i := 0; i < n; i++ {
		start := temporal.YM(2000+r.Intn(6), 1+r.Intn(12))
		var valid temporal.Interval
		if r.Intn(3) == 0 {
			valid = temporal.Since(start)
		} else {
			valid = temporal.Between(start, start+temporal.Instant(1+r.Intn(60)))
		}
		id := MVID(fmt.Sprintf("leaf%d", i))
		mustAdd(&MemberVersion{ID: id, Level: "Leaf", Valid: valid})
		parent := MVID("root")
		if r.Intn(2) == 0 {
			parent = "root2"
		}
		window := valid.Intersect(d.Version(parent).Valid)
		if !window.Empty() {
			mustRel(TemporalRelationship{From: id, To: parent, Valid: window})
		}
	}
	if err := s.AddDimension(d); err != nil {
		panic(err)
	}
	return s
}

// ancestorsAtLevel reads the member's ancestor set at the level out of
// the dimension's rollup table of D(at).
func (d *Dimension) ancestorsAtLevel(id MVID, level string, at temporal.Instant) []*MemberVersion {
	mv := d.members[id]
	if mv == nil {
		return nil
	}
	tab := d.rollupTableAt(level, at)
	lo, hi := tab.setOf(mv.ord)
	return tab.anc[lo:hi]
}
