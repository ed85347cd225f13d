package warehouse

import (
	"fmt"
	"sort"
	"strings"

	"mvolap/internal/core"
)

// This file implements the §1.1 "galaxy schema, or fact constellation"
// — a collection of stars (fact tables with their own measures) sharing
// conformed temporal dimensions — and the drill-across operation that
// joins their answers.

// Constellation is a set of star schemas whose shared dimensions must
// be structurally identical (conformed), so query results can be
// aligned across stars.
type Constellation struct {
	Name  string
	stars []*core.Schema
}

// NewConstellation creates an empty constellation.
func NewConstellation(name string) *Constellation { return &Constellation{Name: name} }

// AddStar registers a star schema. Dimensions whose ID already appears
// in an earlier star must be conformed: same member versions (ID,
// member, level, validity) and same relationships.
func (c *Constellation) AddStar(s *core.Schema) error {
	for _, prev := range c.stars {
		if prev.Name == s.Name {
			return fmt.Errorf("warehouse: constellation %s: duplicate star %q", c.Name, s.Name)
		}
		for _, d := range s.Dimensions() {
			pd := prev.Dimension(d.ID)
			if pd == nil {
				continue
			}
			if err := conformed(pd, d); err != nil {
				return fmt.Errorf("warehouse: constellation %s: dimension %s not conformed between %q and %q: %w",
					c.Name, d.ID, prev.Name, s.Name, err)
			}
		}
	}
	c.stars = append(c.stars, s)
	return nil
}

// Stars returns the registered star schemas.
func (c *Constellation) Stars() []*core.Schema { return c.stars }

// Star returns the star with the given schema name, or nil.
func (c *Constellation) Star(name string) *core.Schema {
	for _, s := range c.stars {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// conformed checks structural equality of two dimensions.
func conformed(a, b *core.Dimension) error {
	av, bv := a.Versions(), b.Versions()
	if len(av) != len(bv) {
		return fmt.Errorf("%d vs %d member versions", len(av), len(bv))
	}
	bByID := make(map[core.MVID]*core.MemberVersion, len(bv))
	for _, mv := range bv {
		bByID[mv.ID] = mv
	}
	for _, mv := range av {
		other := bByID[mv.ID]
		if other == nil {
			return fmt.Errorf("member version %q missing", mv.ID)
		}
		if mv.Member != other.Member || mv.Level != other.Level || !mv.Valid.Equal(other.Valid) {
			return fmt.Errorf("member version %q differs", mv.ID)
		}
	}
	ar, br := a.Relationships(), b.Relationships()
	if len(ar) != len(br) {
		return fmt.Errorf("%d vs %d relationships", len(ar), len(br))
	}
	key := func(r core.TemporalRelationship) string {
		return fmt.Sprintf("%s>%s@%s", r.From, r.To, r.Valid)
	}
	seen := make(map[string]bool, len(br))
	for _, r := range br {
		seen[key(r)] = true
	}
	for _, r := range ar {
		if !seen[key(r)] {
			return fmt.Errorf("relationship %s missing", key(r))
		}
	}
	return nil
}

// DrillAcrossRow is one aligned row of a drill-across result: the
// shared grouping, plus one value/confidence per (star, measure)
// column.
type DrillAcrossRow struct {
	TimeKey string
	Groups  []string
	// Values and CFs align with DrillAcrossResult.Columns; missing
	// cells (a star with no data for the group) hold nil.
	Values []*float64
	CFs    []core.Confidence
}

// DrillAcrossResult is the aligned multi-star result.
type DrillAcrossResult struct {
	// Columns name the value columns as "star.measure".
	Columns []string
	Rows    []DrillAcrossRow
	Mode    string
}

// DrillAcross runs the query shape (group-by, grain, range, filters)
// against every star and aligns the results on (time bucket, groups) —
// the classical drill-across over a fact constellation. The query's
// Measures field is ignored: each star contributes all its measures.
// The mode is resolved per star by the selector (structure versions are
// per star even when dimensions are conformed).
func (c *Constellation) DrillAcross(q core.Query, mode func(*core.Schema) core.Mode) (*DrillAcrossResult, error) {
	if len(c.stars) == 0 {
		return nil, fmt.Errorf("warehouse: constellation %s has no stars", c.Name)
	}
	type cell struct {
		v  float64
		cf core.Confidence
	}
	type rowState struct {
		timeKey string
		groups  []string
		cells   map[string]cell
	}
	rows := make(map[string]*rowState)
	var order []string
	out := &DrillAcrossResult{}
	for _, star := range c.stars {
		sq := q
		sq.Measures = nil
		sq.Mode = mode(star)
		if out.Mode == "" {
			out.Mode = sq.Mode.String()
		}
		res, err := star.Execute(sq)
		if err != nil {
			return nil, fmt.Errorf("warehouse: drill-across star %q: %w", star.Name, err)
		}
		for _, m := range res.MeasureNames {
			out.Columns = append(out.Columns, star.Name+"."+m)
		}
		for _, r := range res.Rows() {
			key := r.TimeKey + "\x1f" + strings.Join(r.Groups, "\x1f")
			st, ok := rows[key]
			if !ok {
				st = &rowState{timeKey: r.TimeKey, groups: r.Groups, cells: make(map[string]cell)}
				rows[key] = st
				order = append(order, key)
			}
			for i, m := range res.MeasureNames {
				st.cells[star.Name+"."+m] = cell{v: r.Values[i], cf: r.CFs[i]}
			}
		}
	}
	sort.Strings(order)
	for _, key := range order {
		st := rows[key]
		row := DrillAcrossRow{TimeKey: st.timeKey, Groups: st.groups}
		for _, col := range out.Columns {
			if cl, ok := st.cells[col]; ok {
				v := cl.v
				row.Values = append(row.Values, &v)
				row.CFs = append(row.CFs, cl.cf)
			} else {
				row.Values = append(row.Values, nil)
				row.CFs = append(row.CFs, core.UnknownMapping)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
