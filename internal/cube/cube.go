// Package cube is the OLAP-server tier of the §5.1 architecture: a
// hypercube built over the MultiVersion Fact Table "using aggregations,
// and that allows requests to integrate the temporal modes of
// presentation concept". It offers the classical OLAP operators —
// roll-up, drill-down, slice, dice, pivot (§1.1) — plus mode switching,
// which the logical model exposes as ordinary navigation on the flat
// TMP dimension (§4.1).
//
// Aggregates are cached per (mode, grain, levels, dice) so repeated
// navigation hits precomputed results, standing in for the aggregate
// precomputation of commercial OLAP servers.
package cube

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mvolap/internal/core"
	"mvolap/internal/quality"
	"mvolap/internal/temporal"
)

// Cube wraps a schema with cached aggregations over its MultiVersion
// Fact Table.
type Cube struct {
	schema *core.Schema
	// levelOrder lists each dimension's levels from root to leaf,
	// unioned over all structure versions.
	levelOrder map[core.DimID][]string
	cache      map[string]*core.Result
	// Hits and Misses count cache effectiveness.
	Hits, Misses int
}

// Build creates a cube over the schema and derives the level order of
// every dimension.
func Build(s *core.Schema) (*Cube, error) {
	c := &Cube{
		schema:     s,
		levelOrder: make(map[core.DimID][]string),
		cache:      make(map[string]*core.Result),
	}
	svs := s.StructureVersions()
	if len(svs) == 0 {
		return nil, fmt.Errorf("cube: schema has no structure versions (no dimension data)")
	}
	for _, d := range s.Dimensions() {
		seen := map[string]bool{}
		var order []string
		for _, sv := range svs {
			rd := sv.Dimension(d.ID)
			for _, l := range rd.LevelsAt(sv.Valid.Start) {
				if !seen[l.Name] {
					seen[l.Name] = true
					order = append(order, l.Name)
				}
			}
		}
		if len(order) == 0 {
			return nil, fmt.Errorf("cube: dimension %s has no levels", d.ID)
		}
		c.levelOrder[d.ID] = order
	}
	return c, nil
}

// Schema returns the underlying schema.
func (c *Cube) Schema() *core.Schema { return c.schema }

// Levels returns the root-to-leaf level order of a dimension.
func (c *Cube) Levels(dim core.DimID) []string { return c.levelOrder[dim] }

// execute runs a query through the cache, keyed by the query's
// canonical form.
func (c *Cube) execute(q core.Query) (*core.Result, error) {
	key := q.Key()
	if res, ok := c.cache[key]; ok {
		c.Hits++
		return res, nil
	}
	res, err := c.schema.Execute(q)
	if err != nil {
		return nil, err
	}
	c.Misses++
	c.cache[key] = res
	return res, nil
}

// Precompute warms the aggregate cache for every mode and every level
// of the named dimension at the given grain — the §1.1 "query results
// are pre-calculated in the form of aggregates" step.
func (c *Cube) Precompute(dim core.DimID, grain core.TimeGrain) error {
	for _, mode := range c.schema.Modes() {
		for _, level := range c.levelOrder[dim] {
			q := core.Query{
				GroupBy: []core.GroupBy{{Dim: dim, Level: level}},
				Grain:   grain,
				Mode:    mode,
			}
			if _, err := c.execute(q); err != nil {
				return err
			}
		}
	}
	return nil
}

// View is a navigable slice of the cube: a temporal mode, a time grain
// and range, one level per displayed dimension, and member filters. The
// zero filters mean "everything".
type View struct {
	cube *Cube
	// Mode is the current temporal mode of presentation.
	Mode core.Mode
	// Grain buckets the time axis (rows of the materialized grid).
	Grain core.TimeGrain
	// Range restricts fact instants.
	Range temporal.Interval
	// ColDim and ColLevel select the column axis.
	ColDim   core.DimID
	ColLevel string
	// RowDim and RowLevel optionally put a second member dimension on
	// the rows instead of the time axis; time is then aggregated over
	// Range. Empty RowDim keeps time rows.
	RowDim   core.DimID
	RowLevel string
	// Measure selects the displayed measure (defaults to the first).
	Measure string
	// dice restricts members per dimension by display name.
	dice map[core.DimID]map[string]bool
	// pivoted swaps rows and columns at materialization.
	pivoted bool
}

// NewView opens a view on the first dimension's root level in
// temporally consistent mode at year grain.
func (c *Cube) NewView() (*View, error) {
	dims := c.schema.Dimensions()
	if len(dims) == 0 {
		return nil, fmt.Errorf("cube: schema has no dimensions")
	}
	d := dims[0]
	ms := c.schema.Measures()
	if len(ms) == 0 {
		return nil, fmt.Errorf("cube: schema has no measures")
	}
	return &View{
		cube:     c,
		Mode:     core.TCM(),
		Grain:    core.GrainYear,
		Range:    temporal.Always,
		ColDim:   d.ID,
		ColLevel: c.levelOrder[d.ID][0],
		Measure:  ms[0].Name,
		dice:     make(map[core.DimID]map[string]bool),
	}, nil
}

// SwitchMode presents the view in another temporal mode — on the
// logical model this is ordinary navigation along the flat TMP
// dimension.
func (v *View) SwitchMode(m core.Mode) *View { v.Mode = m; return v }

// RollUp moves the column axis one level toward the root. At the root
// it is a no-op.
func (v *View) RollUp() *View {
	order := v.cube.levelOrder[v.ColDim]
	for i, l := range order {
		if l == v.ColLevel && i > 0 {
			v.ColLevel = order[i-1]
			break
		}
	}
	return v
}

// DrillDown moves the column axis one level toward the leaves.
func (v *View) DrillDown() *View {
	order := v.cube.levelOrder[v.ColDim]
	for i, l := range order {
		if l == v.ColLevel && i+1 < len(order) {
			v.ColLevel = order[i+1]
			break
		}
	}
	return v
}

// Slice restricts a dimension to a single member (by display name).
func (v *View) Slice(dim core.DimID, member string) *View {
	v.dice[dim] = map[string]bool{member: true}
	return v
}

// Dice restricts a dimension to a set of members (by display name).
// An empty set clears the restriction.
func (v *View) Dice(dim core.DimID, members ...string) *View {
	if len(members) == 0 {
		delete(v.dice, dim)
		return v
	}
	set := make(map[string]bool, len(members))
	for _, m := range members {
		set[m] = true
	}
	v.dice[dim] = set
	return v
}

// Pivot swaps the row (time) and column (member) axes of the
// materialized grid.
func (v *View) Pivot() *View { v.pivoted = !v.pivoted; return v }

// Rows puts a member dimension on the row axis (a member × member
// grid); time is aggregated over the view's range.
func (v *View) Rows(dim core.DimID, level string) *View {
	v.RowDim, v.RowLevel = dim, level
	return v
}

// TimeRows restores the default time-bucketed row axis.
func (v *View) TimeRows() *View {
	v.RowDim, v.RowLevel = "", ""
	return v
}

// TimeRange restricts the time axis.
func (v *View) TimeRange(r temporal.Interval) *View { v.Range = r; return v }

// Cell is one value of a materialized grid with its confidence factor
// and §5.2 colour. Empty cells (no data) have NaN value and Red colour
// ("impossible cross-point in the grid").
type Cell struct {
	Value float64
	CF    core.Confidence
	Color quality.Color
	Empty bool
}

// Grid is a materialized two-dimensional view.
type Grid struct {
	// RowLabels and ColLabels name the axes (time buckets × members
	// unless pivoted).
	RowLabels []string
	ColLabels []string
	// Cells is indexed [row][col].
	Cells [][]Cell
	// Quality is the §5.2 global quality factor Q of the grid under
	// default weights.
	Quality float64
	// Mode echoes the presented temporal mode.
	Mode core.Mode
}

// Materialize evaluates the view into a grid.
func (v *View) Materialize() (*Grid, error) {
	q := core.Query{
		Measures: []string{v.Measure},
		GroupBy:  []core.GroupBy{{Dim: v.ColDim, Level: v.ColLevel}},
		Grain:    v.Grain,
		Range:    v.Range,
		Mode:     v.Mode,
	}
	memberRows := v.RowDim != ""
	if memberRows {
		q.GroupBy = append([]core.GroupBy{{Dim: v.RowDim, Level: v.RowLevel}}, q.GroupBy...)
		q.Grain = core.GrainAll
	}
	// Dice restrictions run inside the engine (core.Filter), so values,
	// confidence factors and the quality score all reflect exactly the
	// displayed slice.
	for dim, names := range v.dice {
		f := core.Filter{Dim: dim}
		for n := range names {
			f.Members = append(f.Members, n)
		}
		sort.Strings(f.Members)
		q.Filters = append(q.Filters, f)
	}
	sort.Slice(q.Filters, func(i, j int) bool { return q.Filters[i].Dim < q.Filters[j].Dim })
	res, err := v.cube.execute(q)
	if err != nil {
		return nil, err
	}
	colSet := map[string]bool{}
	rowSet := map[string]bool{}
	var cols, rows []string
	type cellKey struct{ r, c string }
	values := map[cellKey]Cell{}
	for _, r := range res.Rows() {
		var rowKey, colKey string
		if memberRows {
			rowKey, colKey = r.Groups[0], r.Groups[1]
		} else {
			rowKey, colKey = r.TimeKey, r.Groups[0]
		}
		if !rowSet[rowKey] {
			rowSet[rowKey] = true
			rows = append(rows, rowKey)
		}
		if !colSet[colKey] {
			colSet[colKey] = true
			cols = append(cols, colKey)
		}
		values[cellKey{rowKey, colKey}] = Cell{
			Value: r.Values[0],
			CF:    r.CFs[0],
			Color: quality.CellColor(r.CFs[0]),
		}
	}
	sort.Strings(cols)
	if memberRows {
		sort.Strings(rows)
	}
	g := &Grid{Mode: v.Mode, Quality: quality.Of(res, quality.DefaultWeights())}
	rLabels, cLabels := rows, cols
	if v.pivoted {
		rLabels, cLabels = cols, rows
	}
	g.RowLabels, g.ColLabels = rLabels, cLabels
	g.Cells = make([][]Cell, len(rLabels))
	for i, rl := range rLabels {
		g.Cells[i] = make([]Cell, len(cLabels))
		for j, cl := range cLabels {
			key := cellKey{rl, cl}
			if v.pivoted {
				key = cellKey{cl, rl}
			}
			cell, ok := values[key]
			if !ok {
				cell = Cell{Value: math.NaN(), CF: core.UnknownMapping, Color: quality.Red, Empty: true}
			}
			g.Cells[i][j] = cell
		}
	}
	return g, nil
}

// String renders the grid as an aligned table with confidence codes.
func (g *Grid) String() string {
	widths := make([]int, len(g.ColLabels)+1)
	render := func(c Cell) string {
		if c.Empty {
			return "-"
		}
		return fmt.Sprintf("%s (%s)", core.FormatValue(c.Value), c.CF)
	}
	for j, cl := range g.ColLabels {
		widths[j+1] = len(cl)
	}
	for i, rl := range g.RowLabels {
		if len(rl) > widths[0] {
			widths[0] = len(rl)
		}
		for j := range g.ColLabels {
			if n := len(render(g.Cells[i][j])); n > widths[j+1] {
				widths[j+1] = n
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", widths[0], "")
	for j, cl := range g.ColLabels {
		fmt.Fprintf(&b, " | %-*s", widths[j+1], cl)
	}
	fmt.Fprintf(&b, "\n")
	for i, rl := range g.RowLabels {
		fmt.Fprintf(&b, "%-*s", widths[0], rl)
		for j := range g.ColLabels {
			fmt.Fprintf(&b, " | %-*s", widths[j+1], render(g.Cells[i][j]))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "mode=%s quality=%.3f\n", g.Mode, g.Quality)
	return b.String()
}

// PrecomputeAll warms the aggregate cache for every dimension, every
// level and every mode at the given grain — full lattice warm-up for
// interactive navigation.
func (c *Cube) PrecomputeAll(grain core.TimeGrain) error {
	for _, d := range c.schema.Dimensions() {
		if err := c.Precompute(d.ID, grain); err != nil {
			return err
		}
	}
	return nil
}
