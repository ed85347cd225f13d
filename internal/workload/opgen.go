package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

// This file extends the evolving-organization generators with an
// operation generator for production-shaped load: TQL queries over the
// generated schema, fact batches at currently-valid leaf members, and
// evolution scripts that keep reorganizing the structure while the
// load runs. The generator is deterministic from its seed, so an op
// stream can be reproduced bit-identically.

// Leaf is one currently-valid leaf member a fact can land on.
type Leaf struct {
	ID string
	// Since is the leaf's validity start; generated facts never predate
	// it, so they always pass core.InsertFact's validity check.
	Since temporal.Instant
}

// Surface describes the queryable and mutable surface of a served
// schema: everything the op generator needs to emit statements that
// the server will accept. SurfaceOf builds it from a schema.
type Surface struct {
	// Dim is the primary dimension: the one evolution scripts mutate.
	Dim string
	// DimLeaves holds, per schema dimension in order, the valid leaf
	// members facts can be recorded at.
	DimLeaves [][]Leaf
	// Parents are currently-valid non-leaf members of Dim, the parent
	// pool for generated INSERTs and RECLASSIFYs.
	Parents []string
	// GroupLevels are the level names usable in a BY clause.
	GroupLevels []string
	// LeafLevel is the level generated members are created at.
	LeafLevel string
	// Measures are the measure names, in schema order.
	Measures []string
	// FirstYear and LastYear bound the generated WHERE ranges and
	// VERSION AT instants.
	FirstYear, LastYear int
}

// Validate reports whether the surface can drive all three op kinds.
func (s Surface) Validate() error {
	if s.Dim == "" {
		return fmt.Errorf("workload: surface has no dimension")
	}
	if len(s.Measures) == 0 {
		return fmt.Errorf("workload: surface has no measures")
	}
	if len(s.DimLeaves) == 0 {
		return fmt.Errorf("workload: surface has no dimensions to place facts in")
	}
	for i, leaves := range s.DimLeaves {
		if len(leaves) == 0 {
			return fmt.Errorf("workload: surface dimension %d has no valid leaf members", i)
		}
	}
	if len(s.Parents) == 0 {
		return fmt.Errorf("workload: surface has no valid non-leaf members to parent new ones")
	}
	if len(s.GroupLevels) == 0 {
		return fmt.Errorf("workload: surface has no levels to group by")
	}
	return nil
}

// SurfaceOf derives the surface from a schema.
func SurfaceOf(s *core.Schema) Surface {
	sf := Surface{FirstYear: -1}
	for _, m := range s.Measures() {
		sf.Measures = append(sf.Measures, m.Name)
	}
	levels := map[string]bool{}
	for di, d := range s.Dimensions() {
		if di == 0 {
			sf.Dim = string(d.ID)
		}
		var leaves []Leaf
		for _, mv := range d.Versions() {
			if mv.Valid.End != temporal.Now {
				continue // no longer valid: not a target for new data
			}
			if d.IsLeafVersion(mv.ID) {
				leaves = append(leaves, Leaf{ID: string(mv.ID), Since: mv.Valid.Start})
				if di == 0 && sf.LeafLevel == "" && mv.Level != "" {
					sf.LeafLevel = mv.Level
				}
			} else if di == 0 {
				sf.Parents = append(sf.Parents, string(mv.ID))
			}
			if di == 0 && mv.Level != "" {
				levels[mv.Level] = true
			}
			if y := mv.Valid.Start.YearOf(); mv.Valid.Start != temporal.Origin {
				if sf.FirstYear < 0 || y < sf.FirstYear {
					sf.FirstYear = y
				}
				if y > sf.LastYear {
					sf.LastYear = y
				}
			}
		}
		sortLeaves(leaves)
		sf.DimLeaves = append(sf.DimLeaves, leaves)
	}
	sort.Strings(sf.Parents)
	for l := range levels {
		sf.GroupLevels = append(sf.GroupLevels, l)
	}
	sort.Strings(sf.GroupLevels)
	if sf.FirstYear < 0 {
		sf.FirstYear = StartYear
	}
	if sf.LastYear < sf.FirstYear {
		sf.LastYear = sf.FirstYear
	}
	return sf
}

// sortLeaves keeps surface construction deterministic regardless of
// the map-iteration order of the underlying dimension.
func sortLeaves(leaves []Leaf) {
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].ID < leaves[j].ID })
}

// Fact is the wire form of one generated fact; its JSON shape matches
// the POST /facts body (store.FactRecord).
type Fact struct {
	Coords []string  `json:"coords"`
	Time   string    `json:"time"`
	Values []float64 `json:"values"`
}

// OpGen deterministically generates queries, fact batches and
// evolution scripts over a surface. It is not safe for concurrent use:
// the benchmark's single generator goroutine owns it, which is exactly
// what makes a recorded op stream reproducible.
type OpGen struct {
	r *rand.Rand
	s Surface
	// prefix namespaces generated member IDs so concurrent or repeated
	// runs against the same server never collide.
	prefix string
	nextID int
	// created tracks members this generator inserted, with their
	// current parent, so RECLASSIFY statements are well-formed.
	created []createdMember
	// clock is the instant the next evolution fires at; it starts after
	// the surface's recorded history and advances monthly, mirroring how
	// real organizations keep evolving under load.
	clock temporal.Instant
}

type createdMember struct {
	id     string
	parent string
}

// NewOpGen builds a generator over the surface. Two generators with
// the same seed, surface and prefix emit identical op streams.
func NewOpGen(seed int64, s Surface, prefix string) *OpGen {
	if prefix == "" {
		prefix = "bench"
	}
	return &OpGen{
		r:      rand.New(rand.NewSource(seed)),
		s:      s,
		prefix: prefix,
		clock:  temporal.Year(s.LastYear + 1),
	}
}

// Rand exposes the generator's seeded source so the caller's own
// draws (e.g. the benchmark's mix picker) stay on the same single
// deterministic stream.
func (g *OpGen) Rand() *rand.Rand { return g.r }

// Query emits one TQL statement: a SELECT over a random measure
// subset, grouped by a random level of the primary dimension and a
// random time grain, with an optional WHERE range and a random
// temporal mode of presentation — the paper's Q1/Q2 shapes, varied.
func (g *OpGen) Query() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch {
	case g.r.Intn(10) < 3:
		b.WriteString("*")
	default:
		b.WriteString(g.s.Measures[g.r.Intn(len(g.s.Measures))])
	}
	b.WriteString(" BY ")
	b.WriteString(g.s.Dim)
	b.WriteString(".")
	b.WriteString(g.s.GroupLevels[g.r.Intn(len(g.s.GroupLevels))])
	b.WriteString(", TIME.")
	switch r := g.r.Intn(20); {
	case r < 12:
		b.WriteString("YEAR")
	case r < 15:
		b.WriteString("QUARTER")
	case r < 18:
		b.WriteString("MONTH")
	default:
		b.WriteString("ALL")
	}
	if g.r.Intn(10) < 7 {
		span := g.s.LastYear - g.s.FirstYear + 1
		y1 := g.s.FirstYear + g.r.Intn(span)
		y2 := y1 + g.r.Intn(g.s.LastYear-y1+1)
		fmt.Fprintf(&b, " WHERE TIME BETWEEN %d AND %d", y1, y2)
	}
	switch r := g.r.Intn(20); {
	case r < 13:
		b.WriteString(" MODE tcm")
	case r < 18:
		span := g.s.LastYear - g.s.FirstYear + 1
		fmt.Fprintf(&b, " MODE VERSION AT %d", g.s.FirstYear+g.r.Intn(span))
	default:
		// no MODE clause: exercises the tcm default path
	}
	return b.String()
}

// FactBatch emits n facts at currently-valid leaf coordinates. Fact
// times start at the later of the leaf's validity start and the
// surface's last year, so every fact passes validity checks no matter
// how the structure evolved before it.
func (g *OpGen) FactBatch(n int) []Fact {
	if n <= 0 {
		n = 1
	}
	batch := make([]Fact, n)
	for i := range batch {
		coords := make([]string, len(g.s.DimLeaves))
		var t temporal.Instant
		for di, leaves := range g.s.DimLeaves {
			leaf := leaves[g.r.Intn(len(leaves))]
			coords[di] = leaf.ID
			if at := temporal.Max(leaf.Since, temporal.Year(g.s.LastYear)); at > t {
				t = at
			}
		}
		t += temporal.Instant(g.r.Intn(12)) // scatter within the year
		values := make([]float64, len(g.s.Measures))
		for k := range values {
			values[k] = float64(10 + g.r.Intn(200))
		}
		batch[i] = Fact{Coords: coords, Time: t.String(), Values: values}
	}
	return batch
}

// EvolveScript emits a one-statement evolution script: mostly INSERTs
// of fresh members (which commute, so concurrent clients cannot
// invalidate each other), with occasional RECLASSIFYs of members this
// generator created earlier. The evolution clock advances one month
// per statement.
func (g *OpGen) EvolveScript() string {
	at := g.clock
	g.clock++
	if len(g.created) > 0 && g.r.Intn(10) < 3 {
		i := g.r.Intn(len(g.created))
		m := &g.created[i]
		newParent := g.s.Parents[g.r.Intn(len(g.s.Parents))]
		if newParent != m.parent {
			line := fmt.Sprintf("RECLASSIFY %s %s AT %s FROM %s TO %s",
				g.s.Dim, m.id, at, m.parent, newParent)
			m.parent = newParent
			return line
		}
		// fall through to an INSERT when the reroll landed on the same
		// parent — emitting a no-op RECLASSIFY would be a server error
	}
	id := fmt.Sprintf("%s-%d", g.prefix, g.nextID)
	g.nextID++
	parent := g.s.Parents[g.r.Intn(len(g.s.Parents))]
	g.created = append(g.created, createdMember{id: id, parent: parent})
	level := g.s.LeafLevel
	if level == "" {
		level = "Department"
	}
	return fmt.Sprintf("INSERT %s %s %s LEVEL %s AT %s PARENTS %s",
		g.s.Dim, id, id, level, at, parent)
}
