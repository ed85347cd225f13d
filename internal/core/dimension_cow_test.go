package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mvolap/internal/temporal"
)

// deepCloneDimension is the reference copy for the copy-on-write
// suite: a dimension sharing nothing with d — every member version
// cloned, the relationship slice copied and both indexes rebuilt. It is
// what Dimension.Clone did before it became copy-on-write.
func deepCloneDimension(d *Dimension) *Dimension {
	out := NewDimension(d.ID, d.Name)
	for _, id := range d.order {
		cp := d.members[id].Clone()
		out.members[cp.ID] = cp
		out.order = append(out.order, cp.ID)
	}
	out.rels = append([]TemporalRelationship(nil), d.rels...)
	for i, r := range out.rels {
		out.parentRels[r.From] = append(out.parentRels[r.From], i)
		out.childRels[r.To] = append(out.childRels[r.To], i)
	}
	return out
}

// diffDimension describes how got's structure differs from want's, ""
// when it does not: member set, insertion order, every member
// version's content and ordinal, the relationships in order, and both
// relationship indexes.
func diffDimension(got, want *Dimension) string {
	if !slices.Equal(got.order, want.order) || len(got.members) != len(want.members) {
		return fmt.Sprintf("members %v (%d in the map), want %v (%d)", got.order, len(got.members), want.order, len(want.members))
	}
	for _, id := range want.order {
		g, w := got.members[id], want.members[id]
		if g == nil || g.ID != w.ID || g.Member != w.Member || g.Name != w.Name || g.Level != w.Level ||
			g.Valid != w.Valid || g.ord != w.ord || !maps.Equal(g.Attrs, w.Attrs) {
			return fmt.Sprintf("member %s = %+v, want %+v", id, g, w)
		}
	}
	if len(got.rels) != len(want.rels) {
		return fmt.Sprintf("%d relationships, want %d", len(got.rels), len(want.rels))
	}
	for i := range want.rels {
		if got.rels[i] != want.rels[i] {
			return fmt.Sprintf("relationship %d = %v, want %v", i, got.rels[i], want.rels[i])
		}
	}
	for _, idx := range []struct {
		name      string
		got, want map[MVID][]int
	}{{"parentRels", got.parentRels, want.parentRels}, {"childRels", got.childRels, want.childRels}} {
		if !maps.EqualFunc(idx.got, idx.want, slices.Equal[[]int]) {
			return fmt.Sprintf("%s %v, want %v", idx.name, idx.got, idx.want)
		}
	}
	return ""
}

// dimLineage is a copy-on-write dimension beside its reference deep
// copy; every mutator runs on both and must report the same error.
type dimLineage struct {
	d, ref *Dimension
}

func (l *dimLineage) fork() *dimLineage {
	return &dimLineage{d: l.d.Clone(), ref: deepCloneDimension(l.ref)}
}

// mutate applies one random mutator to both sides. Its arguments are
// drawn from what the reference holds — existing members, an interval
// inside both ends' validity, an existing edge — so most calls succeed
// and reach the write they make; a few are drawn to fail.
func (l *dimLineage) mutate(r *rand.Rand, fresh *int) error {
	const span = 48
	ref := l.ref
	interval := func(within temporal.Interval) temporal.Interval {
		lo := max(within.Start, 0)
		hi := min(within.End, span)
		if lo > hi {
			return temporal.Interval{Start: 1, End: 0}
		}
		start := lo + temporal.Instant(r.Int63n(int64(hi-lo)+1))
		if within.End == temporal.Now && r.Intn(3) == 0 {
			return temporal.Since(start)
		}
		return temporal.Between(start, start+temporal.Instant(r.Int63n(int64(hi-start)+1)))
	}
	member := func() MVID {
		if len(ref.order) == 0 || r.Intn(20) == 0 {
			return "missing"
		}
		return ref.order[r.Intn(len(ref.order))]
	}
	var do func(d *Dimension) error
	switch op := r.Intn(10); {
	case op < 3 || len(ref.order) < 2:
		id := MVID(fmt.Sprintf("m%d", *fresh))
		*fresh++
		if r.Intn(20) == 0 {
			id = member() // a duplicate, refused
		}
		valid := temporal.Since(temporal.Instant(r.Intn(span)))
		if r.Intn(2) == 0 {
			valid = interval(temporal.Between(0, span))
		}
		mv := MemberVersion{ID: id, Level: fmt.Sprintf("L%d", r.Intn(3)), Valid: valid}
		if r.Intn(3) == 0 {
			mv.Attrs = map[string]string{"k": fmt.Sprint(r.Intn(9))}
		}
		do = func(d *Dimension) error { cp := mv; return d.AddVersion(&cp) }
	case op < 6:
		rel := TemporalRelationship{From: member(), To: member()}
		window := temporal.Always
		for _, id := range []MVID{rel.From, rel.To} {
			if mv := ref.members[id]; mv != nil {
				window = window.Intersect(mv.Valid)
			}
		}
		rel.Valid = interval(window)
		do = func(d *Dimension) error { return d.AddRelationship(rel) }
	case op < 8:
		who := member()
		end := temporal.Instant(r.Intn(2 * span))
		if mv := ref.members[who]; mv != nil && r.Intn(4) != 0 {
			end = interval(mv.Valid).End
		}
		do = func(d *Dimension) error { return d.SetEnd(who, end) }
	default:
		from, to, end := member(), member(), temporal.Instant(r.Intn(span))
		if len(ref.rels) > 0 && r.Intn(4) != 0 {
			rel := ref.rels[r.Intn(len(ref.rels))]
			from, to, end = rel.From, rel.To, interval(rel.Valid).Start
		}
		do = func(d *Dimension) error { d.EndRelationship(from, to, end); return nil }
	}
	errD, errRef := do(l.d), do(l.ref)
	if (errD == nil) != (errRef == nil) {
		return fmt.Errorf("copy-on-write side returned %v, reference %v", errD, errRef)
	}
	return nil
}

// readDimension exercises the read API a query uses on a published
// dimension: members and relationships at an instant, both directions
// of the hierarchy, levels and the shared rollup cache.
func readDimension(d *Dimension, at temporal.Instant) int {
	n := len(d.Versions()) + len(d.Relationships())
	for _, mv := range d.VersionsAt(at) {
		n += len(d.ParentsAt(mv.ID, at)) + len(d.ChildrenAt(mv.ID, at))
		for _, l := range d.LevelsAt(at) {
			n += len(d.ancestorsAtLevel(mv.ID, l.Name, at))
		}
	}
	return n
}

// TestPropertyDimensionCloneIsolation drives forking lineages of
// copy-on-write dimensions through random AddVersion, AddRelationship,
// SetEnd and EndRelationship calls — parents and children both keep
// mutating after a Clone — and holds every lineage against a reference
// deep copy receiving the same calls. Some generations are published
// instead: they are never mutated again and readers walk them on other
// goroutines while their clones mutate, so under -race a mutator that
// writes shared state before copying it is a reported race as well as
// a diff.
func TestPropertyDimensionCloneIsolation(t *testing.T) {
	const (
		steps    = 2000
		maxLines = 6
	)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			root := NewDimension("D", "D")
			lines := []*dimLineage{{d: root, ref: deepCloneDimension(root)}}
			type published struct {
				d, ref *Dimension
			}
			var pubs []published
			fresh := 0
			stop := make(chan struct{})
			var readers sync.WaitGroup
			defer func() {
				close(stop)
				readers.Wait()
			}()
			for step := 0; step < steps; step++ {
				li := r.Intn(len(lines))
				l := lines[li]
				switch op := r.Intn(100); {
				case op < 4:
					lines = adopt(r, lines, l, l.fork(), maxLines)
				case op < 6 && len(pubs) < 4:
					// Publish l: its fork takes its place in the pool, and
					// from now on l is only read.
					lines[li] = l.fork()
					pubs = append(pubs, published{l.d, l.ref})
					readers.Add(1)
					go func(d *Dimension) {
						defer readers.Done()
						for at := temporal.Instant(0); ; at = (at + 7) % 64 {
							select {
							case <-stop:
								return
							default:
							}
							readDimension(d, at)
						}
					}(l.d)
				default:
					if err := l.mutate(r, &fresh); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				// Every side, every step: a copy taken later heals the
				// indexes a missing own() let another side write into.
				for j, l := range lines {
					if diff := diffDimension(l.d, l.ref); diff != "" {
						t.Fatalf("step %d lineage %d: %s", step, j, diff)
					}
				}
				for j, p := range pubs {
					if diff := diffDimension(p.d, p.ref); diff != "" {
						t.Fatalf("step %d: published generation %d changed: %s", step, j, diff)
					}
				}
			}
			if len(pubs) == 0 {
				t.Fatal("no generation was published; the run does not test concurrent readers")
			}
		})
	}
}

// TestDimensionCloneCopiesOnFirstMutation pins what a clone costs: no
// copy until a mutator runs, then exactly one, on the mutated side only.
func TestDimensionCloneCopiesOnFirstMutation(t *testing.T) {
	base := buildOrg(t)
	copies := metDimensionCopies.With("Org")
	before := copies.Value()
	cl := base.Clone()
	if cl.Version("Smith") != base.Version("Smith") {
		t.Fatal("Clone copied the member versions")
	}
	if got := copies.Value() - before; got != 0 {
		t.Fatalf("Clone counted %d copies", got)
	}
	for i := 0; i < 2; i++ {
		if err := cl.SetEnd("Smith", y(2005+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := copies.Value() - before; got != 1 {
		t.Fatalf("two mutations of one clone copied %d times, want 1", got)
	}
	if base.Version("Smith").Valid.End != temporal.Now || cl.Version("Smith").Valid.End != y(2006) {
		t.Errorf("Smith ends %v on the base and %v on the clone", base.Version("Smith").Valid.End, cl.Version("Smith").Valid.End)
	}
}
