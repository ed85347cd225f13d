// Package logical implements the logical-level adaptation of §4 of Body
// et al. (ICDE 2003): how the conceptual temporal multidimensional
// model is represented on current commercial OLAP systems, which only
// know dimensions and fact tables.
//
//   - The set TMP of temporal modes of presentation becomes a 'flat'
//     dimension without hierarchical structure (§4.1), giving the user
//     all the flexibility of an ordinary dimension when exploring cubes
//     (comparing structure versions, switching modes, rotating...).
//   - Each confidence factor becomes an ordinary measure of the fact
//     table, with ⊗cf as its aggregate function (§4.1).
//   - Because commercial tools store hierarchical links as foreign keys
//     inside child attributes, the Reclassify operator cannot change a
//     relationship independently of members; §4.2 rewrites it into
//     Insert + Exclude + Associate with source-data equivalence, and
//     recursively re-versions all descendants.
//   - §5.1 discusses three physical dimension layouts: denormalized
//     (star), normalized (snowflake), and parent-child; all three are
//     generated here on the rolap substrate.
package logical

import (
	"fmt"
	"slices"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/rolap"
	"mvolap/internal/temporal"
)

// TMPDimension describes the flat temporal-mode dimension of §4.1: one
// member per temporal mode of presentation, no hierarchy.
type TMPDimension struct {
	// Members are the mode names: "tcm", "V1", "V2", ...
	Members []string
}

// TMPDimensionOf derives the flat TMP dimension from the schema.
func TMPDimensionOf(s *core.Schema) TMPDimension {
	modes := s.Modes()
	out := TMPDimension{Members: make([]string, len(modes))}
	for i, m := range modes {
		out.Members[i] = m.String()
	}
	return out
}

// LogicalMeasures lists the measures of the logical fact table: the m
// schema measures followed by one confidence measure per schema measure
// (§4.1: "each confidence factor ... may be seen as a measure in the
// fact table").
func LogicalMeasures(s *core.Schema) []core.Measure {
	ms := s.Measures()
	out := make([]core.Measure, 0, 2*len(ms))
	out = append(out, ms...)
	for _, m := range ms {
		out = append(out, core.Measure{Name: "cf_" + m.Name, Agg: core.Max})
	}
	return out
}

// RewriteReclassify performs the §4.2 rewrite of
// Reclassify(Did, mvID, ti, [tf], OldParents, NewParents) for tools
// whose hierarchical links live inside member attributes:
//
//	Insert(Did, mvID', mvName, [A], [level], ti, [tf], P', E)
//	Exclude(Did, mvID, ti)
//	Associate(mvID, mvID', ∪{(x→x, sd)}, ∪{(x→x, sd)})
//
// where P' = (P − OldParents) ∪ NewParents and E are the children of
// mvID. Every child in E is then reclassified recursively to the new
// version mvID', once: a descendant under several re-versioned parents
// (a multiple hierarchy) hangs under all their new versions. The new
// versions take the ID of the old one suffixed with "@<ti>". It returns
// the IDs of all versions created.
//
// The rewrite is all or nothing. It plans every version it re-versions
// from the structure just before ti, which its own operators leave as
// it is, and checks the plan before it applies an operator: every new
// ID is free, every parent outside the plan is still valid at ti, and
// every version may end at ti−1 (Schema.CanEndVersion: no stored fact
// holds it later). When a check fails it returns the error with the
// schema and the applier's log as it found them.
func RewriteReclassify(a *evolution.Applier, s *core.Schema, dim core.DimID, id core.MVID,
	at temporal.Instant, oldParents, newParents []core.MVID) ([]core.MVID, error) {
	d := s.Dimension(dim)
	if d == nil {
		return nil, fmt.Errorf("logical: unknown dimension %q", dim)
	}
	plan, created, err := planReclassify(s, d, id, at, oldParents, newParents)
	if err != nil {
		return nil, err
	}
	planned := make(map[core.MVID]bool, len(created))
	for _, newID := range created {
		if s.VersionOf(newID) != nil {
			return nil, fmt.Errorf("logical: cannot re-version at %s: member version %q exists", at, newID)
		}
		planned[newID] = true
	}
	for _, op := range plan {
		switch op := op.(type) {
		case evolution.Insert:
			for _, p := range op.Parents {
				if pv := d.Version(p); !planned[p] && (pv == nil || pv.Valid.End < at) {
					return nil, fmt.Errorf("logical: cannot re-version %q under %q: the parent is not valid at %s", op.ID, p, at)
				}
			}
		case evolution.Exclude:
			if err := s.CanEndVersion(dim, op.ID, at.Prev()); err != nil {
				return nil, fmt.Errorf("logical: %w", err)
			}
		}
	}
	if err := a.Apply(plan...); err != nil {
		return nil, err
	}
	return created, nil
}

// planReclassify returns the operators of the §4.2 rewrite of id and of
// its descendants, in the order they apply, and the IDs of the versions
// they create. It reads the structure just before at only. The subtree is
// planned parents first, each version once: a descendant under several
// re-versioned parents (a multiple hierarchy, Definition 4) is planned
// after all of them, under every new version, and keeps its parents
// outside the subtree. A tree is planned in pre-order: a version's three
// operators, then its children's, in child order.
func planReclassify(s *core.Schema, d *core.Dimension, id core.MVID, at temporal.Instant,
	oldParents, newParents []core.MVID) (plan []evolution.Op, created []core.MVID, err error) {
	mv := d.Version(id)
	if mv == nil {
		return nil, nil, fmt.Errorf("logical: unknown member version %q", id)
	}
	before := at.Prev()
	if !mv.ValidAt(before) {
		return nil, nil, fmt.Errorf("logical: %q not valid just before %s", id, at)
	}
	// The reverse of a post-order walk that takes children last to first
	// lists parents before children, a tree in pre-order.
	var post []*core.MemberVersion
	seen := map[core.MVID]bool{}
	var walk func(v *core.MemberVersion)
	walk = func(v *core.MemberVersion) {
		seen[v.ID] = true
		kids := d.ChildrenAt(v.ID, before)
		for k := len(kids) - 1; k >= 0; k-- {
			if !seen[kids[k].ID] {
				walk(kids[k])
			}
		}
		post = append(post, v)
	}
	walk(mv)

	old := make(map[core.MVID]bool, len(oldParents))
	for _, p := range oldParents {
		old[p] = true
	}
	renamed := make(map[core.MVID]core.MVID, len(post))
	measures := len(s.Measures())
	for k := len(post) - 1; k >= 0; k-- {
		v := post[k]
		// P' = (P − OldParents) ∪ NewParents for id; a descendant keeps its
		// parents outside the subtree and trades the ones inside for their
		// new versions.
		var kept, moved []core.MVID
		for _, p := range d.ParentsAt(v.ID, before) {
			if np, ok := renamed[p.ID]; ok {
				moved = append(moved, np)
			} else if v != mv || !old[p.ID] {
				kept = append(kept, p.ID)
			}
		}
		if v == mv {
			moved = newParents
		}
		var parents []core.MVID
		for _, p := range append(kept, moved...) {
			if !slices.Contains(parents, p) {
				parents = append(parents, p)
			}
		}
		newID := core.MVID(fmt.Sprintf("%s@%s", v.ID, at))
		renamed[v.ID] = newID
		plan = append(plan,
			evolution.Insert{
				Dim: d.ID, ID: newID, Member: v.Member, Name: v.DisplayName(),
				Attrs: v.Attrs, Level: v.Level, Start: at, Parents: parents,
			},
			evolution.Exclude{Dim: d.ID, ID: v.ID, At: at},
			evolution.Associate{Mapping: core.MappingRelationship{
				From:     v.ID,
				To:       newID,
				Forward:  core.UniformMapping(measures, core.Identity, core.SourceData),
				Backward: core.UniformMapping(measures, core.Identity, core.SourceData),
			}},
		)
		created = append(created, newID)
	}
	return plan, created, nil
}

// Layout selects one of the §5.1 physical dimension representations.
type Layout uint8

// The three layouts discussed by the paper.
const (
	// Star denormalizes each dimension into a single table whose rows
	// carry the display names of all ancestors per structure version.
	Star Layout = iota
	// Snowflake normalizes levels into separate tables linked by
	// foreign keys, one row per member version and structure version.
	Snowflake
	// ParentChild stores members and links in a single self-referencing
	// table, "close to our conceptual model" (§5.1) — the layout that
	// supports evolution best but (per the paper) not multi-hierarchies
	// in commercial tools.
	ParentChild
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case Star:
		return "star"
	case Snowflake:
		return "snowflake"
	case ParentChild:
		return "parent-child"
	}
	return fmt.Sprintf("Layout(%d)", uint8(l))
}

// BuildDimensionTables lays the schema's dimensions out on the database
// in the chosen layout and returns the created table names.
func BuildDimensionTables(s *core.Schema, db *rolap.Database, layout Layout) ([]string, error) {
	switch layout {
	case Star:
		return buildStar(s, db)
	case Snowflake:
		return buildSnowflake(s, db)
	case ParentChild:
		return buildParentChild(s, db)
	}
	return nil, fmt.Errorf("logical: unknown layout %d", layout)
}

// buildParentChild creates one table per dimension:
// (mv_id, member, name, level, parent_id, valid_from, valid_to).
// Rows appear once per parent link (NULL parent for roots), exactly
// mirroring the conceptual temporal graph.
func buildParentChild(s *core.Schema, db *rolap.Database) ([]string, error) {
	var names []string
	for _, d := range s.Dimensions() {
		name := "dim_" + string(d.ID) + "_pc"
		tab, err := db.CreateTable(name, rolap.Schema{
			{Name: "mv_id", Type: rolap.Text},
			{Name: "member", Type: rolap.Text},
			{Name: "name", Type: rolap.Text},
			{Name: "level", Type: rolap.Text},
			{Name: "parent_id", Type: rolap.Text},
			{Name: "valid_from", Type: rolap.Time},
			{Name: "valid_to", Type: rolap.Time},
		})
		if err != nil {
			return nil, err
		}
		linked := make(map[core.MVID]bool)
		for _, r := range d.Relationships() {
			child := d.Version(r.From)
			if err := tab.Insert(string(r.From), child.Member, child.DisplayName(),
				child.Level, string(r.To), r.Valid.Start, r.Valid.End); err != nil {
				return nil, err
			}
			linked[r.From] = true
		}
		for _, mv := range d.Versions() {
			if linked[mv.ID] {
				continue
			}
			if err := tab.Insert(string(mv.ID), mv.Member, mv.DisplayName(),
				mv.Level, nil, mv.Valid.Start, mv.Valid.End); err != nil {
				return nil, err
			}
		}
		if err := tab.CreateIndex("mv_id"); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// buildStar creates one denormalized table per dimension:
// (sv, mv_id, name, level, ancestors as one column per upper level).
// Rows are repeated per structure version — the §5.1 observation that
// running on commercial tools "implies a high level of useless
// redundancies".
func buildStar(s *core.Schema, db *rolap.Database) ([]string, error) {
	svs := s.StructureVersions()
	var names []string
	for _, d := range s.Dimensions() {
		// Determine the global set of level names over all versions.
		levelSet := map[string]bool{}
		var levelOrder []string
		for _, sv := range svs {
			rd := sv.Dimension(d.ID)
			for _, l := range rd.LevelsAt(sv.Valid.Start) {
				if !levelSet[l.Name] {
					levelSet[l.Name] = true
					levelOrder = append(levelOrder, l.Name)
				}
			}
		}
		schema := rolap.Schema{
			{Name: "sv", Type: rolap.Text},
			{Name: "mv_id", Type: rolap.Text},
			{Name: "name", Type: rolap.Text},
			{Name: "level", Type: rolap.Text},
		}
		for _, ln := range levelOrder {
			schema = append(schema, rolap.Column{Name: "anc_" + ln, Type: rolap.Text})
		}
		name := "dim_" + string(d.ID) + "_star"
		tab, err := db.CreateTable(name, schema)
		if err != nil {
			return nil, err
		}
		for _, sv := range svs {
			rd := sv.Dimension(d.ID)
			at := sv.Valid.Start
			for _, mv := range rd.VersionsAt(at) {
				row := []any{sv.ID, string(mv.ID), mv.DisplayName(), rd.LevelOf(mv.ID, at)}
				for _, ln := range levelOrder {
					row = append(row, firstAncestorName(rd, mv.ID, ln, at))
				}
				if err := tab.Insert(row...); err != nil {
					return nil, err
				}
			}
		}
		if err := tab.CreateIndex("mv_id"); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// firstAncestorName finds the display name of an ancestor (or self) of
// id at the named level, or nil.
func firstAncestorName(d *core.Dimension, id core.MVID, level string, at temporal.Instant) any {
	var found any
	seen := map[core.MVID]bool{}
	var walk func(cur core.MVID)
	walk = func(cur core.MVID) {
		if found != nil || seen[cur] {
			return
		}
		seen[cur] = true
		if d.LevelOf(cur, at) == level {
			found = d.Version(cur).DisplayName()
			return
		}
		for _, p := range d.ParentsAt(cur, at) {
			walk(p.ID)
		}
	}
	walk(id)
	return found
}

// buildSnowflake creates one table per (dimension, level):
// (sv, mv_id, name, parent_id), normalized with a foreign key to the
// parent level.
func buildSnowflake(s *core.Schema, db *rolap.Database) ([]string, error) {
	svs := s.StructureVersions()
	var names []string
	for _, d := range s.Dimensions() {
		levelSet := map[string]*rolap.Table{}
		for _, sv := range svs {
			rd := sv.Dimension(d.ID)
			at := sv.Valid.Start
			for _, l := range rd.LevelsAt(at) {
				tab, ok := levelSet[l.Name]
				if !ok {
					name := "dim_" + string(d.ID) + "_" + sanitize(l.Name)
					var err error
					tab, err = db.CreateTable(name, rolap.Schema{
						{Name: "sv", Type: rolap.Text},
						{Name: "mv_id", Type: rolap.Text},
						{Name: "name", Type: rolap.Text},
						{Name: "parent_id", Type: rolap.Text},
					})
					if err != nil {
						return nil, err
					}
					levelSet[l.Name] = tab
					names = append(names, name)
				}
				for _, mv := range l.Members {
					ps := rd.ParentsAt(mv.ID, at)
					if len(ps) == 0 {
						if err := tab.Insert(sv.ID, string(mv.ID), mv.DisplayName(), nil); err != nil {
							return nil, err
						}
						continue
					}
					for _, p := range ps {
						if err := tab.Insert(sv.ID, string(mv.ID), mv.DisplayName(), string(p.ID)); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	return names, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
