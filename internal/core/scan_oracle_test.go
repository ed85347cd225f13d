package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"mvolap/internal/temporal"
)

// naiveTuple is one tuple of f' restricted to a mode, as naiveMapped
// derives it.
type naiveTuple struct {
	Coords Coords
	Time   temporal.Instant
	Values []float64
	CFs    []Confidence
	// Sources counts the presentations merged into the tuple.
	Sources int
}

// naivePresent is one way of presenting a source member version in a
// structure version: the target, and per measure the mapping functions
// met along the path, in path order, and the combined confidence.
type naivePresent struct {
	target MVID
	fns    [][]Mapper
	cfs    []Confidence
}

// naiveResolve finds the presentations of source among the targets by a
// breadth-first walk of the mapping relationships, forward through
// Forward and backward through Backward, that stops at the first target
// on each path. A source that is a target presents as itself.
func naiveResolve(s *Schema, source MVID, targets map[MVID]bool) []naivePresent {
	nm := len(s.Measures())
	self := naivePresent{target: source, fns: make([][]Mapper, nm), cfs: make([]Confidence, nm)}
	if targets[source] {
		return []naivePresent{self}
	}
	var out []naivePresent
	seen := map[MVID]bool{source: true}
	frontier := []naivePresent{self}
	for len(frontier) > 0 {
		var next []naivePresent
		for _, at := range frontier {
			step := func(to MVID, mms []MeasureMapping) {
				if seen[to] {
					return
				}
				seen[to] = true
				p := naivePresent{target: to, fns: make([][]Mapper, nm), cfs: make([]Confidence, nm)}
				for k, mm := range mms {
					p.fns[k] = append(slices.Clip(at.fns[k]), mm.Fn)
					p.cfs[k] = s.ConfidenceAlgebra().Combine(at.cfs[k], mm.CF)
				}
				if targets[to] {
					out = append(out, p)
				} else {
					next = append(next, p)
				}
			}
			for _, m := range s.Mappings() {
				if m.From == at.target {
					step(m.To, m.Forward)
				}
			}
			for _, m := range s.Mappings() {
				if m.To == at.target {
					step(m.From, m.Backward)
				}
			}
		}
		frontier = next
	}
	return out
}

// naiveMapped derives f' restricted to a mode from the fact table and
// the mapping relationships alone (Definition 11). In tcm every fact
// presents as itself with confidence sd. In a version mode every
// coordinate presents among the leaves of its dimension in the version
// (naiveResolve), a fact fans out to every combination of its
// coordinates' presentations, values run through the functions of each
// in dimension order, and confidences combine under ⊗cf. f' is a
// function: presentations landing on one (coordinates, instant) merge
// into one tuple — per measure Sum adds, Min and Max keep the extreme,
// Avg takes the mean and Count the number of its non-NaN contributions,
// NaN being the absent value — in the order of their first presentation.
// dropped counts the facts with a coordinate nothing presents.
func naiveMapped(s *Schema, m Mode) (tuples []*naiveTuple, dropped int) {
	nm := len(s.Measures())
	alg := s.ConfidenceAlgebra()
	type merged struct {
		tuple   *naiveTuple
		contrib [][]float64
	}
	cells := map[string]*merged{}
	var order []*merged
	// Per dimension, the version's leaves and each member's
	// presentations among them, resolved on first sight.
	var leaves []map[MVID]bool
	var presents []map[MVID][]naivePresent
	if m.Kind == VersionKind {
		for _, d := range s.Dimensions() {
			targets := map[MVID]bool{}
			for _, mv := range m.Version.Dimension(d.ID).LeavesAt(m.Version.Valid.Start) {
				targets[mv.ID] = true
			}
			leaves = append(leaves, targets)
			presents = append(presents, map[MVID][]naivePresent{})
		}
	}
	s.Facts().All(func(f *Fact) bool {
		if m.Kind != VersionKind {
			tuples = append(tuples, &naiveTuple{Coords: f.Coords.Clone(), Time: f.Time,
				Values: slices.Clone(f.Values), CFs: make([]Confidence, nm), Sources: 1})
			return true
		}
		per := make([][]naivePresent, len(f.Coords))
		for i, id := range f.Coords {
			if per[i] = presents[i][id]; per[i] == nil {
				per[i] = naiveResolve(s, id, leaves[i])
				presents[i][id] = per[i]
			}
			if len(per[i]) == 0 {
				dropped++
				return true
			}
		}
		combo := make([]int, len(per))
		for {
			tu := &naiveTuple{Coords: make(Coords, len(per)), Time: f.Time,
				Values: slices.Clone(f.Values), CFs: make([]Confidence, nm), Sources: 1}
			for i, ps := range per {
				p := ps[combo[i]]
				tu.Coords[i] = p.target
				for k := range tu.Values {
					for _, fn := range p.fns[k] {
						v, ok := fn.Map(tu.Values[k])
						if !ok {
							v = math.NaN()
						}
						tu.Values[k] = v
					}
					tu.CFs[k] = alg.Combine(tu.CFs[k], p.cfs[k])
				}
			}
			key := fmt.Sprint(tu.Coords, "@", tu.Time)
			c := cells[key]
			if c == nil {
				c = &merged{tuple: tu, contrib: make([][]float64, nm)}
				cells[key] = c
				order = append(order, c)
			} else {
				c.tuple.Sources++
				for k := range tu.CFs {
					c.tuple.CFs[k] = alg.Combine(c.tuple.CFs[k], tu.CFs[k])
				}
			}
			for k, v := range tu.Values {
				if !math.IsNaN(v) {
					c.contrib[k] = append(c.contrib[k], v)
				}
			}
			i := 0
			for ; i < len(combo); i++ {
				if combo[i]++; combo[i] < len(per[i]) {
					break
				}
				combo[i] = 0
			}
			if i == len(combo) {
				break
			}
		}
		return true
	})
	for _, c := range order {
		for k, vs := range c.contrib {
			if len(vs) == 0 {
				c.tuple.Values[k] = math.NaN()
				continue
			}
			acc := vs[0]
			for _, v := range vs[1:] {
				switch s.Measures()[k].Agg {
				case Sum, Avg:
					acc += v
				case Min:
					acc = math.Min(acc, v)
				case Max:
					acc = math.Max(acc, v)
				}
			}
			switch s.Measures()[k].Agg {
			case Avg:
				acc /= float64(len(vs))
			case Count:
				acc = float64(len(vs))
			}
			c.tuple.Values[k] = acc
		}
		tuples = append(tuples, c.tuple)
	}
	return tuples, dropped
}

// naiveExecute is the scan's oracle: Definitions 11 and 12 done the
// obvious way. It derives the mode's tuples itself (naiveMapped), walks
// upward from every tuple's coordinates with the public structure
// accessors (no rollup table, no ordinal, no slot), keys cells by a
// string, and folds sequentially in tuple order.
func naiveExecute(t testing.TB, s *Schema, q Query) *Result {
	t.Helper()
	if q.Mode.Kind == VersionKind && q.Mode.Version == nil {
		t.Fatal("oracle: version mode without a version")
	}
	tuples, dropped := naiveMapped(s, q.Mode)
	res := &Result{Mode: q.Mode, Dropped: dropped}
	var mIdx []int
	if len(q.Measures) == 0 {
		for i, m := range s.measures {
			mIdx = append(mIdx, i)
			res.MeasureNames = append(res.MeasureNames, m.Name)
		}
	}
	for _, name := range q.Measures {
		mIdx = append(mIdx, s.MeasureIndex(name))
		res.MeasureNames = append(res.MeasureNames, name)
	}
	for _, g := range q.GroupBy {
		res.GroupNames = append(res.GroupNames, fmt.Sprintf("%s.%s", s.Dimension(g.Dim).Name, g.Level))
	}
	rng := q.Range
	if rng == (temporal.Interval{}) {
		rng = temporal.Always
	}
	// structure picks the graph and instant a dimension rolls up in.
	structure := func(id DimID, ft temporal.Instant) (*Dimension, temporal.Instant) {
		if q.Mode.Kind == VersionKind && q.Mode.Version != nil {
			if rd := q.Mode.Version.Dimension(id); rd != nil {
				return rd, q.Mode.Version.Valid.Start
			}
		}
		return s.Dimension(id), ft
	}
	var climb func(d *Dimension, at temporal.Instant, cur MVID, seen map[MVID]bool, visit func(*MemberVersion) bool)
	climb = func(d *Dimension, at temporal.Instant, cur MVID, seen map[MVID]bool, visit func(*MemberVersion) bool) {
		mv := d.Version(cur)
		if seen[cur] || mv == nil {
			return
		}
		seen[cur] = true
		if visit(mv) {
			return
		}
		for _, p := range d.ParentsAt(cur, at) {
			climb(d, at, p.ID, seen, visit)
		}
	}

	type cell struct {
		row   *Row
		order int64 // the bucket's, from bucketOf
		accs  []*Accumulator
	}
	cells := map[string]*cell{}
	var list []*cell // first-sight order
	for _, f := range tuples {
		if !rng.Contains(f.Time) {
			continue
		}
		pass := true
		for _, flt := range q.Filters {
			d, at := structure(flt.Dim, f.Time)
			under := false
			climb(d, at, f.Coords[s.DimIndex(flt.Dim)], map[MVID]bool{}, func(mv *MemberVersion) bool {
				under = under || slices.Contains(flt.Members, mv.DisplayName())
				return under
			})
			pass = pass && under
		}
		if !pass {
			continue
		}
		perAxis := make([][]*MemberVersion, len(q.GroupBy))
		for ai, g := range q.GroupBy {
			d, at := structure(g.Dim, f.Time)
			climb(d, at, f.Coords[s.DimIndex(g.Dim)], map[MVID]bool{}, func(mv *MemberVersion) bool {
				if d.LevelOf(mv.ID, at) != g.Level {
					return false
				}
				perAxis[ai] = append(perAxis[ai], mv)
				return true
			})
			pass = pass && len(perAxis[ai]) > 0
		}
		if !pass {
			continue
		}
		timeKey, timeOrder := bucketKey(q.Grain, f.Time), bucketOrder(q.Grain, f.Time)
		combo := make([]int, len(perAxis))
		for {
			names := make([]string, len(perAxis))
			ids := make([]MVID, len(perAxis))
			for ai := range perAxis {
				names[ai] = perAxis[ai][combo[ai]].DisplayName()
				ids[ai] = perAxis[ai][combo[ai]].ID
			}
			key := timeKey + "\x1e" + strings.Join(names, "\x1f")
			c := cells[key]
			if c == nil {
				c = &cell{order: timeOrder, row: &Row{TimeKey: timeKey, Groups: names, GroupIDs: ids,
					Values: make([]float64, len(mIdx)), CFs: make([]Confidence, len(mIdx))}}
				for _, mi := range mIdx {
					c.accs = append(c.accs, NewAccumulator(s.measures[mi].Agg))
				}
				cells[key] = c
				list = append(list, c)
			}
			for k, mi := range mIdx {
				c.accs[k].Add(f.Values[mi])
				if c.row.N == 0 {
					c.row.CFs[k] = f.CFs[mi]
				} else {
					c.row.CFs[k] = s.alg.Combine(c.row.CFs[k], f.CFs[mi])
				}
			}
			c.row.N++
			i := 0
			for ; i < len(combo); i++ {
				if combo[i]++; combo[i] < len(perAxis[i]) {
					break
				}
				combo[i] = 0
			}
			if i == len(combo) {
				break
			}
		}
	}
	for _, c := range cells {
		for k := range c.accs {
			c.row.Values[k] = c.accs[k].Value()
		}
	}
	sort.SliceStable(list, func(i, j int) bool {
		a, b := list[i], list[j]
		if a.order != b.order {
			return a.order < b.order
		}
		for k := range a.row.Groups {
			if a.row.Groups[k] != b.row.Groups[k] {
				return a.row.Groups[k] < b.row.Groups[k]
			}
		}
		return false
	})
	rows := make([]*Row, len(list))
	for i, c := range list {
		rows[i] = c.row
	}
	res.SetRows(rows)
	return res
}

// oracleSchema builds a two-dimension warehouse shaped to reach every
// branch of the scan. Dimension A carries explicit levels Top/Mid/Leaf
// with multiple hierarchies (a member under two parents), non-covering
// ones (leaves hanging straight off a top, members with no parent),
// parents that change over time, and pairs of versions sharing a display
// name, both as ancestors and as leaves. Dimension B has no level tags,
// so its levels are depths that move as edges come and go. Facts fill a
// little over two storage shards, mostly in time order so that ranges
// prune, with measures under Sum, Max, Avg and Count.
//
// Dimension A also carries Definition 7's transitions, each at its own
// cut: a merge of two leaves (P0, P1 → PM, backward halves), a split
// (Q0 → Q1, Q2 with k = 1/4 and 3/4), a transition whose function is
// Unknown for one measure (U0 → U1), a leaf that presents on a leaf
// valid beside it (X1 → L0), and leaves no mapping reaches (X0 ends,
// and in B, GX ends), so that a version mode merges, fans out, loses
// values and drops facts, in one dimension or both.
// Values and factors are dyadic, so every fold is exact in any order.
//
// Some leaves carry display names whose byte order, the order a result
// lists groups in, differs from both the order they are added in and
// their member ordinals: L10 sorts before L2, l1 after L9, the prefix
// pair Sales2/Sales is added longer name first, and Ökonomie, added
// before L10, sorts after every ASCII name.
func oracleSchema(t testing.TB, seed int64) *Schema {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	first, last := ym(2000, 1), ym(2004, 12)
	instant := func() temporal.Instant { return first + temporal.Instant(r.Intn(int(last-first)+1)) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	link := func(d *Dimension, from, to MVID, want temporal.Interval) {
		if w := want.Intersect(d.Version(from).Valid).Intersect(d.Version(to).Valid); !w.Empty() {
			must(d.AddRelationship(TemporalRelationship{From: from, To: to, Valid: w}))
		}
	}

	a := NewDimension("A", "A")
	tops := []MVID{"T0", "T1", "T2"}
	must(a.AddVersion(&MemberVersion{ID: "T0", Level: "Top", Valid: temporal.Since(first)}))
	// Two tops under one display name, valid together.
	must(a.AddVersion(&MemberVersion{ID: "T1", Name: "North", Level: "Top", Valid: temporal.Since(first)}))
	must(a.AddVersion(&MemberVersion{ID: "T2", Name: "North", Level: "Top", Valid: temporal.Since(instant())}))
	var mids []MVID
	for i := 0; i < 6; i++ {
		id := MVID(fmt.Sprintf("M%d", i))
		mids = append(mids, id)
		must(a.AddVersion(&MemberVersion{ID: id, Level: "Mid", Valid: temporal.Since(first)}))
		switch r.Intn(4) {
		case 0: // no parent: Top does not cover it
		case 1: // two parents at once
			link(a, id, tops[r.Intn(3)], temporal.Always)
			link(a, id, tops[r.Intn(3)], temporal.Since(instant()))
		default: // one parent, changing once
			cut := instant()
			link(a, id, tops[r.Intn(3)], temporal.Between(first, cut.Prev()))
			link(a, id, tops[r.Intn(3)], temporal.Since(cut))
		}
	}
	var aLeaves []MVID
	leafNames := map[int]string{1: "l1", 5: "Sales2", 6: "Ökonomie", 7: "Sales"}
	for i := 0; i < 20; i++ {
		id := MVID(fmt.Sprintf("L%d", i))
		aLeaves = append(aLeaves, id)
		mv := &MemberVersion{ID: id, Name: leafNames[i], Level: "Leaf", Valid: temporal.Since(first)}
		if i%5 == 4 {
			mv.Name = string(aLeaves[i-1]) // shares its neighbour's display name
		}
		must(a.AddVersion(mv))
		switch r.Intn(5) {
		case 0: // orphan
		case 1: // hangs off a top: Mid does not cover it
			link(a, id, tops[r.Intn(3)], temporal.Always)
		case 2: // two mids at once
			link(a, id, mids[r.Intn(6)], temporal.Always)
			link(a, id, mids[r.Intn(6)], temporal.Since(instant()))
		default:
			cut := instant()
			link(a, id, mids[r.Intn(6)], temporal.Between(first, cut.Prev()))
			link(a, id, mids[r.Intn(6)], temporal.Since(cut))
		}
	}

	cut := func() temporal.Instant { return first + 1 + temporal.Instant(r.Intn(int(last-first))) }
	type transition struct {
		before, after []MVID
	}
	var mappings []MappingRelationship
	lin := func(k float64, cf Confidence) []MeasureMapping { return UniformMapping(4, Linear{K: k}, cf) }
	for _, tr := range []transition{{[]MVID{"P0", "P1"}, []MVID{"PM"}}, {[]MVID{"Q0"}, []MVID{"Q1", "Q2"}},
		{[]MVID{"U0"}, []MVID{"U1"}}, {[]MVID{"X0"}, []MVID{"X1"}}} {
		at := cut()
		for _, id := range tr.before {
			must(a.AddVersion(&MemberVersion{ID: id, Level: "Leaf", Valid: temporal.Between(first, at.Prev())}))
			link(a, id, mids[r.Intn(6)], temporal.Always)
			aLeaves = append(aLeaves, id)
		}
		for _, id := range tr.after {
			must(a.AddVersion(&MemberVersion{ID: id, Level: "Leaf", Valid: temporal.Since(at)}))
			link(a, id, mids[r.Intn(6)], temporal.Always)
			aLeaves = append(aLeaves, id)
		}
	}
	mappings = append(mappings,
		MappingRelationship{From: "P0", To: "PM", Forward: lin(1, ExactMapping), Backward: lin(0.5, ApproxMapping)},
		MappingRelationship{From: "P1", To: "PM", Forward: lin(1, ExactMapping), Backward: lin(0.5, ApproxMapping)},
		MappingRelationship{From: "Q0", To: "Q1", Forward: lin(0.25, ApproxMapping), Backward: lin(1, ExactMapping)},
		MappingRelationship{From: "Q0", To: "Q2", Forward: lin(0.75, ApproxMapping), Backward: lin(1, ExactMapping)},
		MappingRelationship{From: "U0", To: "U1",
			Forward:  []MeasureMapping{{Linear{K: 1}, ExactMapping}, {Unknown{}, UnknownMapping}, {Linear{K: 1}, ExactMapping}, {Linear{K: 1}, ExactMapping}},
			Backward: lin(1, ExactMapping)},
		// Before X1 begins, its facts present on L0, a leaf throughout, and
		// merge with L0's own at the same instants.
		MappingRelationship{From: "X1", To: "L0", Forward: lin(1, ExactMapping), Backward: lin(1, ExactMapping)},
	)

	b := NewDimension("B", "B")
	must(b.AddVersion(&MemberVersion{ID: "R0", Valid: temporal.Since(first)}))
	must(b.AddVersion(&MemberVersion{ID: "R1", Name: "R0", Valid: temporal.Since(first)}))
	for i := 0; i < 3; i++ {
		id := MVID(fmt.Sprintf("C%d", i))
		must(b.AddVersion(&MemberVersion{ID: id, Valid: temporal.Since(first)}))
		link(b, id, []MVID{"R0", "R1"}[r.Intn(2)], temporal.Since(instant()))
	}
	var bLeaves []MVID
	for i := 0; i < 8; i++ {
		id := MVID(fmt.Sprintf("G%d", i))
		bLeaves = append(bLeaves, id)
		must(b.AddVersion(&MemberVersion{ID: id, Valid: temporal.Since(first)}))
		cut := instant()
		link(b, id, MVID(fmt.Sprintf("C%d", r.Intn(3))), temporal.Between(first, cut.Prev()))
		if r.Intn(3) > 0 {
			link(b, id, []MVID{"R0", "R1", "C0"}[r.Intn(3)], temporal.Since(cut))
		}
	}
	// A leaf of B that ends and that no mapping reaches either, so that
	// both dimensions drop facts in the later versions.
	must(b.AddVersion(&MemberVersion{ID: "GX", Valid: temporal.Between(first, cut().Prev())}))
	link(b, "GX", "C0", temporal.Always)
	bLeaves = append(bLeaves, "GX")

	s := NewSchema("oracle", Measure{Name: "sum", Agg: Sum}, Measure{Name: "max", Agg: Max},
		Measure{Name: "avg", Agg: Avg}, Measure{Name: "cnt", Agg: Count})
	must(s.AddDimension(a))
	must(s.AddDimension(b))
	for _, m := range mappings {
		must(s.AddMapping(m))
	}
	type key struct {
		a, b MVID
		t    temporal.Instant
	}
	keys := make([]key, 0, len(aLeaves)*len(bLeaves)*int(last-first+1))
	for t := first; t <= last; t++ {
		for _, la := range aLeaves {
			if !a.Version(la).ValidAt(t) {
				continue
			}
			for _, lb := range bLeaves {
				if !b.Version(lb).ValidAt(t) {
					continue
				}
				keys = append(keys, key{la, lb, t})
			}
		}
	}
	// Time order with local disorder: instants interleave inside a shard.
	for i := range keys {
		j := i + r.Intn(min(200, len(keys)-i))
		keys[i], keys[j] = keys[j], keys[i]
	}
	for _, k := range keys[:2*MappedShardSize+700+r.Intn(500)] {
		v := math.Floor(r.Float64()*1e6) / 64
		if r.Intn(40) == 0 {
			v = math.NaN()
		}
		cnt := 1.0
		if r.Intn(40) == 0 {
			cnt = math.NaN()
		}
		must(s.InsertFact(Coords{k.a, k.b}, k.t, v, float64(r.Intn(100)), float64(r.Intn(4096))/16, cnt))
	}
	return s
}

func oracleQuery(r *rand.Rand, s *Schema) Query {
	q := Query{
		Grain: []TimeGrain{GrainAll, GrainYear, GrainQuarter, GrainMonth}[r.Intn(4)],
		Mode:  TCM(),
	}
	aLevel := GroupBy{Dim: "A", Level: []string{"Top", "Mid", "Leaf"}[r.Intn(3)]}
	bLevel := GroupBy{Dim: "B", Level: fmt.Sprintf("depth-%d", r.Intn(4))} // depth-3 never exists
	switch r.Intn(6) {
	case 0: // grand total per bucket
	case 1, 2:
		q.GroupBy = []GroupBy{aLevel}
	case 3:
		q.GroupBy = []GroupBy{bLevel}
	case 4:
		q.GroupBy = []GroupBy{aLevel, bLevel}
	default:
		q.GroupBy = []GroupBy{bLevel, aLevel}
	}
	if r.Intn(3) == 0 {
		q.Measures = []string{[]string{"sum", "max", "avg", "cnt"}[r.Intn(4)]}
	}
	if r.Intn(4) > 0 {
		from := ym(2000+r.Intn(5), 1+r.Intn(12))
		q.Range = temporal.Between(from, from+temporal.Instant(r.Intn(30)))
	}
	if r.Intn(3) == 0 {
		q.Filters = append(q.Filters, Filter{Dim: "A", Members: [][]string{{"North"}, {"M1", "M4"}, {"L3"}, {"T0", "nobody"}}[r.Intn(4)]})
	}
	if r.Intn(5) == 0 {
		q.Filters = append(q.Filters, Filter{Dim: "B", Members: [][]string{{"R0"}, {"C1", "G2"}}[r.Intn(2)]})
	}
	if svs := s.StructureVersions(); r.Intn(2) == 0 {
		q.Mode = InVersion(svs[r.Intn(len(svs))])
	}
	return q
}

// entriesMet returns how many entries of d's version chain the range
// meets, the zero range meaning all time.
func entriesMet(d *Dimension, rng temporal.Interval) int {
	if rng == (temporal.Interval{}) {
		rng = temporal.Always
	}
	n := 0
	for _, e := range d.chain() {
		if e.valid.Overlaps(rng) {
			n++
		}
	}
	return n
}

// requireMatchesOracle runs q and compares the answer with the oracle's
// bit for bit, GroupIDs, N, Dropped and row order included.
func requireMatchesOracle(t *testing.T, label string, s *Schema, q Query) {
	t.Helper()
	want := naiveExecute(t, s, q)
	got, err := s.Execute(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	l := fmt.Sprintf("%s %+v", label, q)
	for i, row := range got.Rows() {
		if i < want.Len() && (len(row.Groups) != len(q.GroupBy) || len(row.GroupIDs) != len(q.GroupBy)) {
			t.Fatalf("%s row %d: groups %v / %v", l, i, row.Groups, row.GroupIDs)
		}
	}
	requireBitIdentical(t, l, got, want)
	if fmt.Sprint(got.MeasureNames, got.GroupNames) != fmt.Sprint(want.MeasureNames, want.GroupNames) {
		t.Fatalf("%s: header %v %v, want %v %v", l, got.MeasureNames, got.GroupNames, want.MeasureNames, want.GroupNames)
	}
}

// TestPropertyScanMatchesNaiveReference holds the scan — rollup tables,
// slots, integer cells, the fold in tuple order — against an oracle
// that shares none of it.
func TestPropertyScanMatchesNaiveReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed * 31))
			s := oracleSchema(t, seed)
			nonEmpty := 0
			// changing counts, in tcm and in a version mode, the filters
			// on a dimension whose structure changes inside the queried
			// range: a tcm scan dices them through one column per chain
			// entry it meets.
			var changing [2]int
			for i := 0; i < 24; i++ {
				q := oracleQuery(r, s)
				requireMatchesOracle(t, fmt.Sprintf("query %d", i), s, q)
				if res, _ := s.Execute(q); res.Len() > 0 {
					nonEmpty++
				}
				for _, f := range q.Filters {
					if entriesMet(s.Dimension(f.Dim), q.Range) > 1 {
						changing[q.Mode.Kind]++
					}
				}
			}
			if nonEmpty < 12 {
				t.Fatalf("only %d of 24 queries answered any row: the generator lost its teeth", nonEmpty)
			}
			t.Logf("filters on a dimension changing inside the range: %d in tcm, %d in a version mode", changing[TCMKind], changing[VersionKind])
			if changing[TCMKind] == 0 {
				t.Fatal("no tcm filter falls on a dimension changing inside its range: the generator lost its teeth")
			}
			// Every mode once at the finest grain, so that no transition
			// hides behind the random queries' ranges, dices and levels.
			for _, m := range s.Modes() {
				requireMatchesOracle(t, "every mode", s, Query{GroupBy: []GroupBy{{Dim: "A", Level: "Leaf"}}, Grain: GrainMonth, Mode: m})
			}

			// The serving tier's way on: a clone gains a member (its ordinal
			// lies past every table the lineage built before), facts on it,
			// and a retraction folded into the warm tables as tombstones.
			grown := s.Clone()
			ca := grown.Dimension("A")
			from := ym(2003, 1+r.Intn(12))
			if err := ca.AddVersion(&MemberVersion{ID: "Lnew", Name: "L0", Level: "Leaf", Valid: temporal.Since(from)}); err != nil {
				t.Fatal(err)
			}
			if err := ca.AddRelationship(TemporalRelationship{From: "Lnew", To: "M2", Valid: temporal.Since(from)}); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 40; k++ {
				at := from + temporal.Instant(r.Intn(int(ym(2004, 12)-from)+1))
				if err := grown.InsertFact(Coords{"Lnew", MVID(fmt.Sprintf("G%d", k%8))}, at, float64(k), 1, float64(k)/4, 1); err != nil {
					t.Fatal(err)
				}
			}
			grown.WarmFrom(context.Background(), s, grown.Delta())
			clone := grown.Clone()
			for k := 0; k < 25; k++ {
				victim := clone.Facts().Facts()[r.Intn(clone.Facts().Len())]
				if _, err := clone.RetractFact(victim.Coords, victim.Time); err != nil {
					t.Fatal(err)
				}
			}
			clone.WarmFrom(context.Background(), grown, clone.Delta())
			ca = clone.Dimension("A")
			if clone.Facts().dead == 0 {
				t.Fatal("the clone's fact table carries no tombstone")
			}
			if got := ca.ancestorsAtLevel("Lnew", "Mid", ym(2000, 6)); len(got) != 0 {
				t.Fatalf("a member past a shared table's end rolls up to %v before it exists", got)
			}
			for i := 0; i < 12; i++ {
				requireMatchesOracle(t, fmt.Sprintf("clone query %d", i), clone, oracleQuery(r, clone))
			}
		})
	}
}

// TestPropertyAggregateMemberMatchesNaive holds AggregateMember, a
// grand total diced from one member version, against the oracle's grand
// total over [t, t] diced by the member's display name, at random
// (member version, instant, mode) where that name is unique in the
// structure the mode reads at t, bit for bit.
func TestPropertyAggregateMemberMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed * 41))
			s := oracleSchema(t, seed)
			modes := s.Modes()
			compared, withData := 0, 0
			for compared < 32 {
				pos := r.Intn(len(s.dims))
				d := s.dims[pos]
				mv := d.Version(d.order[r.Intn(len(d.order))])
				at := ym(2000, 1) + temporal.Instant(r.Intn(60))
				m := modes[r.Intn(len(modes))]
				read := at
				if m.Kind == VersionKind {
					read = m.Version.readAt(pos)
				}
				namesakes := 0
				for _, v := range d.VersionsAt(read) {
					if v.DisplayName() == mv.DisplayName() {
						namesakes++
					}
				}
				if !mv.ValidAt(read) || namesakes != 1 {
					continue
				}
				compared++
				label := fmt.Sprintf("%s at %s in %s", mv.ID, at, m)
				vals, cfs, err := s.AggregateMember(mv.ID, at, m)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := naiveExecute(t, s, Query{Range: temporal.Between(at, at), Grain: GrainAll, Mode: m,
					Filters: []Filter{{Dim: d.ID, Members: []string{mv.DisplayName()}}}})
				if want.Len() == 0 {
					for k := range vals {
						if !math.IsNaN(vals[k]) || cfs[k] != UnknownMapping {
							t.Fatalf("%s: %v (%v), want no data: NaN (uk)", label, vals, cfs)
						}
					}
					continue
				}
				withData++
				for k, w := range want.Values(0) {
					if math.Float64bits(vals[k]) != math.Float64bits(w) || cfs[k] != want.CFs(0)[k] {
						t.Fatalf("%s: %v (%v), want %v (%v)", label, vals, cfs, want.Values(0), want.CFs(0))
					}
				}
			}
			if withData < 8 {
				t.Fatalf("only %d of %d members had data: the generator lost its teeth", withData, compared)
			}
		})
	}
}

// TestPropertyScanMatchesNaiveReferenceUnderAlgebras holds the scan
// against the oracle under algebras other than Example 5's. Both built-in
// algebras are commutative, so they cannot tell Combine(cell, tuple)
// from Combine(tuple, cell). lastWins can: it is Example 5's table but
// for one entry, am ⊗cf uk = uk while uk ⊗cf am = am, so of a cell's am
// and uk factors the last one folded wins, and a fold that swapped the
// operands would keep the first. Version modes fold am and uk tuples
// into shared cells at every level above the leaves.
//
// The table is commutative on sd and em on purpose. A version mode folds
// the tuples that may merge (Definition 11: two presentations on one
// coordinate and instant) after the others, where the oracle folds every
// tuple in presentation order; in this generator such tuples carry sd
// or em only, so the two orders agree under lastWins, and the test
// isolates operand order from that difference.
func TestPropertyScanMatchesNaiveReferenceUnderAlgebras(t *testing.T) {
	sd, em, am, uk := SourceData, ExactMapping, ApproxMapping, UnknownMapping
	lastWins := &TruthTable{Label: "last-am-or-uk-wins", Table: [numConfidence][numConfidence]Confidence{
		{sd, em, am, uk},
		{em, em, am, uk},
		{am, am, am, uk},
		{uk, uk, am, uk},
	}}
	for _, alg := range []ConfidenceAlgebra{NewQuantitativeAlgebra(), lastWins, approxThenSource()} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", alg.Name(), seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed * 37))
				s := oracleSchema(t, seed)
				s.SetConfidenceAlgebra(alg)
				for i := 0; i < 24; i++ {
					requireMatchesOracle(t, fmt.Sprintf("query %d", i), s, oracleQuery(r, s))
				}
				// Every mode's grand total folds all of its am and uk tuples
				// into one cell.
				for _, m := range s.Modes() {
					requireMatchesOracle(t, "every mode", s, Query{Grain: GrainAll, Mode: m})
				}
			})
		}
	}
	// Under approxThenSource the oracle schemas cannot show the kept
	// step: their second dimension presents every tuple through its
	// identity mapping, so an am presentation reaches its cell as am ⊗cf
	// sd = uk. splitSchema has one dimension: in V3 Jones's facts present
	// on Bill and Paul with am, and fold with stored tuples into Sales and
	// the grand total, where the kept step turns the cell uk; its merges
	// carry em and sd alone, which commute under the table, so folding
	// merged tuples last cannot tell it from presentation order.
	t.Run("am-then-sd-unknown/split", func(t *testing.T) {
		s := splitSchema(t)
		s.SetConfidenceAlgebra(approxThenSource())
		for _, m := range s.Modes() {
			for _, g := range [][]GroupBy{nil, {{Dim: "Org", Level: "Division"}}, {{Dim: "Org", Level: "Department"}}} {
				for _, grain := range []TimeGrain{GrainAll, GrainYear} {
					requireMatchesOracle(t, "split", s, Query{GroupBy: g, Grain: grain, Mode: m})
				}
			}
		}
		res, err := s.Execute(Query{Grain: GrainAll, Mode: InVersion(s.VersionAt(y(2003)))})
		if err != nil || res.Len() != 1 || res.Rows()[0].CFs[0] != UnknownMapping {
			t.Fatalf("V3's grand total = %+v, %v; want one row, uk (am tuples, then stored ones)", res, err)
		}
	})
}

// approxThenSource is Example 5's table but for one entry, am ⊗cf sd =
// uk: a stored tuple folded into a cell that holds an approximation
// leaves it unknown. Example 5's table and the quantitative algebra have
// sd as right identity, so a scan under them skips the ⊗cf step of a
// stored tuple (scanner.skipSD); under this table it keeps the step.
func approxThenSource() *TruthTable {
	sd, em, am, uk := SourceData, ExactMapping, ApproxMapping, UnknownMapping
	return &TruthTable{Label: "am-then-sd-unknown", Table: [numConfidence][numConfidence]Confidence{
		{sd, em, am, uk},
		{em, em, am, uk},
		{uk, am, am, uk},
		{uk, uk, uk, uk},
	}}
}

// TestPresentMatchesNaiveMapped holds Schema.Present — the scan's
// presenter and merge map over every live tuple — against naiveMapped,
// which derives f' from the facts and the mapping relationships alone,
// in every mode of the oracle schemas: under Example 5's algebra and
// under the two of TestPropertyScanMatchesNaiveReferenceUnderAlgebras,
// and, under Example 5's, again on a clone with retracted facts. Tuples
// come in the same order with the same coordinates, instants,
// confidences and source counts, and the same number of facts drops.
// Sum, Max and Count values match bit for bit; an Avg value, which
// Present folds as a running mean and the oracle as one sum over the
// count, within a relative 1e-12.
func TestPresentMatchesNaiveMapped(t *testing.T) {
	sd, em, am, uk := SourceData, ExactMapping, ApproxMapping, UnknownMapping
	// TestPropertyScanMatchesNaiveReferenceUnderAlgebras's lastWins.
	lastWins := &TruthTable{Label: "last-am-or-uk-wins", Table: [numConfidence][numConfidence]Confidence{
		{sd, em, am, uk},
		{em, em, am, uk},
		{am, am, am, uk},
		{uk, uk, am, uk},
	}}
	requireSame := func(t *testing.T, label string, s *Schema) {
		t.Helper()
		for _, m := range s.Modes() {
			got, gotDropped := presented(t, s, m)
			want, wantDropped := naiveMapped(s, m)
			l := fmt.Sprintf("%s mode %s", label, m)
			if gotDropped != wantDropped || len(got) != len(want) {
				t.Fatalf("%s: %d tuples, %d dropped; want %d, %d", l, len(got), gotDropped, len(want), wantDropped)
			}
			for i, w := range want {
				g := got[i]
				if !g.Coords.Equal(w.Coords) || g.Time != w.Time || !slices.Equal(g.CFs, w.CFs) || g.Sources != w.Sources {
					t.Fatalf("%s tuple %d: %v@%v cf %v sources %d; want %v@%v cf %v sources %d",
						l, i, g.Coords, g.Time, g.CFs, g.Sources, w.Coords, w.Time, w.CFs, w.Sources)
				}
				for k, wv := range w.Values {
					gv := g.Values[k]
					same := math.Float64bits(gv) == math.Float64bits(wv)
					if s.Measures()[k].Agg == Avg && !same {
						same = math.Abs(gv-wv) <= 1e-12*math.Abs(wv)
					}
					if !same {
						t.Fatalf("%s tuple %d %v@%v measure %s: %v, want %v", l, i, g.Coords, g.Time, s.Measures()[k].Name, gv, wv)
					}
				}
			}
		}
	}
	for _, alg := range []ConfidenceAlgebra{PaperAlgebra(), NewQuantitativeAlgebra(), lastWins} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", alg.Name(), seed), func(t *testing.T) {
				s := oracleSchema(t, seed)
				s.SetConfidenceAlgebra(alg)
				requireSame(t, "schema", s)
				if alg.Name() != PaperAlgebra().Name() {
					return
				}
				clone := s.Clone()
				r := rand.New(rand.NewSource(seed))
				for k := 0; k < 25; k++ {
					victim := clone.Facts().Facts()[r.Intn(clone.Facts().Len())]
					if _, err := clone.RetractFact(victim.Coords, victim.Time); err != nil {
						t.Fatal(err)
					}
				}
				requireSame(t, "clone", clone)
			})
		}
	}
}

// TestSourcesOfMatchesNaiveResolve holds SourcesOf — the lineage EXPLAIN
// reads, off the scan's presenter over the instant's shards — against
// naiveResolve on the oracle schemas (two dimensions, splits, merges,
// Unknown confidences, drops), with and without retracted facts: for
// every version mode and a sample of the tuples Present yields, merged ones
// sixteen times as often, the sources are exactly
// the live facts at its instant whose every coordinate naiveResolve
// presents on the tuple's, in store order; each one's per-dimension
// mappings carry the hit's functions and confidences, its confidences
// are their ⊗cf combination from sd, and there are as many as the
// tuple's Sources. SourcesOf refuses tcm, whose cells are their stored
// facts.
func TestSourcesOfMatchesNaiveResolve(t *testing.T) {
	// Each probe walks its instant's shards: about one merged tuple in
	// 4 is probed, and one in 64 of the others.
	const probe = 1234.5
	requireSources := func(t *testing.T, s *Schema) {
		t.Helper()
		alg := s.ConfidenceAlgebra()
		nm := len(s.Measures())
		for _, m := range s.Modes() {
			if m.Kind != VersionKind {
				if err := s.SourcesOf(context.Background(), m, nil, 0, func(*Fact, [][]MeasureMapping, []Confidence) bool { return true }); err == nil {
					t.Fatalf("SourcesOf in %s: no error", m)
				}
				continue
			}
			var leaves []map[MVID]bool
			for _, d := range s.Dimensions() {
				targets := map[MVID]bool{}
				for _, mv := range m.Version.Dimension(d.ID).LeavesAt(m.Version.Valid.Start) {
					targets[mv.ID] = true
				}
				leaves = append(leaves, targets)
			}
			// hits returns f's presentation on coords, per dimension; nil
			// when some coordinate does not present there.
			resolved := make([]map[MVID][]naivePresent, len(s.Dimensions()))
			for i := range resolved {
				resolved[i] = map[MVID][]naivePresent{}
			}
			hits := func(f *Fact, coords Coords) []naivePresent {
				out := make([]naivePresent, len(coords))
				for i, id := range f.Coords {
					ps, ok := resolved[i][id]
					if !ok {
						ps = naiveResolve(s, id, leaves[i])
						resolved[i][id] = ps
					}
					k := slices.IndexFunc(ps, func(p naivePresent) bool { return p.target == coords[i] })
					if k < 0 {
						return nil
					}
					out[i] = ps[k]
				}
				return out
			}
			at := map[temporal.Instant][]*Fact{}
			for _, f := range s.Facts().Facts() {
				at[f.Time] = append(at[f.Time], f)
			}
			tuples, _ := presented(t, s, m)
			for x, tu := range tuples {
				if every := map[bool]int{true: 4, false: 64}[tu.Sources > 1]; x%every != 0 {
					continue
				}
				l := fmt.Sprintf("mode %s tuple %v@%v", m, tu.Coords, tu.Time)
				type want struct {
					f    *Fact
					hits []naivePresent
				}
				var wants []want
				for _, f := range at[tu.Time] {
					if h := hits(f, tu.Coords); h != nil {
						wants = append(wants, want{f, h})
					}
				}
				n := 0
				err := s.SourcesOf(context.Background(), m, tu.Coords, tu.Time, func(src *Fact, per [][]MeasureMapping, cfs []Confidence) bool {
					if n >= len(wants) {
						t.Fatalf("%s: more than the %d sources naiveResolve finds", l, len(wants))
					}
					w := wants[n]
					n++
					if !src.Coords.Equal(w.f.Coords) || src.Time != w.f.Time || !slices.EqualFunc(src.Values, w.f.Values, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
						t.Fatalf("%s: source %d is %v@%v %v, want %v@%v %v", l, n, src.Coords, src.Time, src.Values, w.f.Coords, w.f.Time, w.f.Values)
					}
					for k := 0; k < nm; k++ {
						cf := SourceData
						for i, h := range w.hits {
							cf = alg.Combine(cf, h.cfs[k])
							v := probe
							for _, fn := range h.fns[k] {
								v, _ = fn.Map(v)
							}
							got, _ := per[i][k].Fn.Map(probe)
							if per[i][k].CF != h.cfs[k] || math.Float64bits(got) != math.Float64bits(v) {
								t.Fatalf("%s: source %v dimension %d measure %d maps %v→%v with %v, want %v with %v",
									l, src.Coords, i, k, probe, got, per[i][k].CF, v, h.cfs[k])
							}
						}
						if cfs[k] != cf {
							t.Fatalf("%s: source %v measure %d confidence %v, want %v", l, src.Coords, k, cfs[k], cf)
						}
					}
					return true
				})
				if err != nil {
					t.Fatalf("%s: %v", l, err)
				}
				if n != len(wants) || n != tu.Sources {
					t.Fatalf("%s: %d sources, naiveResolve finds %d, Present merged %d", l, n, len(wants), tu.Sources)
				}
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := oracleSchema(t, seed)
			requireSources(t, s)
			clone := s.Clone()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 25; k++ {
				victim := clone.Facts().Facts()[r.Intn(clone.Facts().Len())]
				if _, err := clone.RetractFact(victim.Coords, victim.Time); err != nil {
					t.Fatal(err)
				}
			}
			requireSources(t, clone)
		})
	}
}

// TestRollupTablesConcurrentFirstTouch has eight goroutines ask a cold
// schema the same questions at once, so every rollup table is first
// touched under contention; each answer must be the oracle's. Its other
// assertions are the race detector's.
func TestRollupTablesConcurrentFirstTouch(t *testing.T) {
	s := oracleSchema(t, 9)
	queries := []Query{
		{GroupBy: []GroupBy{{Dim: "A", Level: "Mid"}, {Dim: "B", Level: "depth-1"}}, Grain: GrainQuarter, Mode: TCM()},
		{GroupBy: []GroupBy{{Dim: "A", Level: "Top"}}, Grain: GrainYear, Mode: TCM(),
			Filters: []Filter{{Dim: "B", Members: []string{"R0"}}}},
		{GroupBy: []GroupBy{{Dim: "B", Level: "depth-0"}}, Grain: GrainMonth, Mode: InVersion(s.VersionAt(ym(2002, 6)))},
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		want[i] = naiveExecute(t, s, q) // walks the structure, builds no table
	}
	instants := map[temporal.Instant]bool{}
	for _, f := range s.Facts().Facts() {
		instants[f.Time] = true
	}
	builtA, builtB := metRollupTablesBuilt.With("A").Value(), metRollupTablesBuilt.With("B").Value()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range queries {
				got, err := s.Execute(q)
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				if got.Len() != want[i].Len() {
					t.Errorf("goroutine %d query %d: %d rows, want %d", g, i, got.Len(), want[i].Len())
					return
				}
				rows := got.Rows()
				for k, w := range want[i].Rows() {
					r := rows[k]
					if r.TimeKey != w.TimeKey || r.N != w.N || fmt.Sprint(r.GroupIDs) != fmt.Sprint(w.GroupIDs) ||
						math.Float64bits(r.Values[0]) != math.Float64bits(w.Values[0]) {
						t.Errorf("goroutine %d query %d row %d: %+v, want %+v", g, i, k, r, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Eight goroutines met every instant; each table was built once per
	// chain entry and level, whatever the number of instants the entry
	// spans: A at Mid and at Top in every entry holding a fact instant, B
	// at depth-1 in every such entry and at depth-0 once, in the
	// structure version.
	entries := func(id DimID) int64 {
		chain := s.Dimension(id).chain()
		held := map[*entryTables]bool{}
		for _, e := range chain {
			for at := range instants {
				if e.valid.Contains(at) {
					held[e.tables] = true
				}
			}
		}
		return int64(len(held))
	}
	if n := entries("A"); n >= int64(len(instants)) {
		t.Fatalf("A's chain has %d entries over %d fact instants: nothing to share", n, len(instants))
	}
	if got, want := metRollupTablesBuilt.With("A").Value()-builtA, 2*entries("A"); got != want {
		t.Errorf("%d rollup tables built for A, want %d", got, want)
	}
	if got, want := metRollupTablesBuilt.With("B").Value()-builtB, entries("B")+1; got != want {
		t.Errorf("%d rollup tables built for B, want %d", got, want)
	}
}

// TestWarmRollupQueryAllocationBudget pins the per-tuple path to "reads
// arrays, allocates nothing": once the rollup tables exist, a rollup
// over 20k tuples may allocate per instant, per group and per row, but
// nothing that grows with the tuples — well under 64 B per scanned
// tuple, where one allocation per tuple would not fit.
func TestWarmRollupQueryAllocationBudget(t *testing.T) {
	const departments, months = 300, 72
	const tuples = departments * months
	d := NewDimension("Org", "Org")
	s := NewSchema("wide", Measure{Name: "m", Agg: Sum})
	for i := 0; i < 8; i++ {
		if err := d.AddVersion(&MemberVersion{ID: MVID(fmt.Sprintf("div-%d", i)), Level: "Division", Valid: temporal.Since(y(2000))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < departments; i++ {
		id := MVID(fmt.Sprintf("dept-%d", i))
		if err := d.AddVersion(&MemberVersion{ID: id, Level: "Department", Valid: temporal.Since(y(2000))}); err != nil {
			t.Fatal(err)
		}
		if err := d.AddRelationship(TemporalRelationship{From: id, To: MVID(fmt.Sprintf("div-%d", i%8)), Valid: temporal.Since(y(2000))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < months; m++ {
		for i := 0; i < departments; i++ {
			if err := s.InsertFact(Coords{MVID(fmt.Sprintf("dept-%d", i))}, y(2000)+temporal.Instant(m), float64(i+m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := Query{GroupBy: []GroupBy{{Dim: "Org", Level: "Division"}}, Grain: GrainYear, Mode: TCM()}
	scannedBefore := metFactsScanned.Value()
	if _, err := s.Execute(q); err != nil { // builds the rollup tables
		t.Fatal(err)
	}
	if got := metFactsScanned.Value() - scannedBefore; got != tuples {
		t.Fatalf("the query scanned %d tuples, want %d", got, tuples)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := s.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perTuple := float64(after.TotalAlloc-before.TotalAlloc) / runs / tuples
	t.Logf("%.1f B allocated per scanned tuple", perTuple)
	if perTuple >= 64 {
		t.Errorf("a warm rollup query allocates %.1f B per scanned tuple, want < 64", perTuple)
	}
}

// TestScanFoldsInTupleOrder pins the fold order bit for bit. Values
// 1/(i+1) make a float sum depend on the order its terms are added in,
// and the facts span two shards, so a scan that reordered emissions
// within a shard or across shards would differ from the oracle's
// sequential fold in the last bits.
func TestScanFoldsInTupleOrder(t *testing.T) {
	s := NewSchema("order", Measure{Name: "Amount", Agg: Sum})
	if err := s.AddDimension(buildOrg(t)); err != nil {
		t.Fatal(err)
	}
	members := []MVID{"Smith", "Brian"}
	for i := 0; i < MappedShardSize+500; i++ {
		s.MustInsertFact(Coords{members[i%2]}, ym(2001+(i/2)/12, 1+(i/2)%12), 1/float64(i+1))
	}
	for _, q := range []Query{
		{Grain: GrainAll, Mode: TCM()},
		{GroupBy: []GroupBy{{Dim: "Org", Level: "Division"}}, Grain: GrainAll, Mode: InVersion(s.VersionAt(y(2001)))},
	} {
		requireMatchesOracle(t, "fold order", s, q)
	}
}

// TestScanSkipsStoredConfidenceStep: a scan takes no ⊗cf step for a
// stored tuple when sd is a right identity of the algebra's table — under
// Example 5's table and the quantitative algebra, not under
// approxThenSource — and takes it again once a factor outside the table
// has reached a cell. outOfTable is Example 5's table inside it, so the
// scan starts out skipping; in V3 of splitSchemaWith(t, 9) Jones's facts
// present on Bill and Paul with a factor outside it, and stored tuples
// then fold into the same cells, where the oracle takes every step.
func TestScanSkipsStoredConfidenceStep(t *testing.T) {
	for _, c := range []struct {
		alg  ConfidenceAlgebra
		skip bool
	}{{PaperAlgebra(), true}, {NewQuantitativeAlgebra(), true}, {approxThenSource(), false}, {outOfTable{}, true}} {
		s := splitSchema(t)
		s.SetConfidenceAlgebra(c.alg)
		p, err := s.planScan(Query{Grain: GrainAll, Mode: TCM()})
		if err != nil {
			t.Fatal(err)
		}
		if got := newScanner(p, s.facts, nil, 0, 0).skipSD; got != c.skip {
			t.Errorf("%s: skipSD = %v, want %v", c.alg.Name(), got, c.skip)
		}
	}

	s := splitSchemaWith(t, 9)
	s.SetConfidenceAlgebra(outOfTable{})
	v3 := InVersion(s.VersionAt(y(2003)))
	for _, g := range [][]GroupBy{nil, {{Dim: "Org", Level: "Division"}}} {
		requireMatchesOracle(t, "out of table", s, Query{GroupBy: g, Grain: GrainAll, Mode: v3})
	}
	res, err := s.Execute(Query{Grain: GrainAll, Mode: v3})
	if err != nil || res.Len() != 1 || res.Rows()[0].CFs[0] < numConfidence {
		t.Fatalf("V3's grand total = %+v, %v; want one row with a factor outside the table", res, err)
	}
}

// outOfTable is Example 5's table over the four factors and x ⊗cf y =
// x + y + 1 when a factor lies outside them, so that x ⊗cf sd = x holds
// inside the table and nowhere outside it.
type outOfTable struct{}

var paperAlgebra = PaperAlgebra()

func (outOfTable) Combine(a, b Confidence) Confidence {
	if a < numConfidence && b < numConfidence {
		return paperAlgebra.Combine(a, b)
	}
	return a + b + 1
}

func (outOfTable) Name() string { return "example-5-then-sum" }
