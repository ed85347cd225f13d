// Package evolution implements the structural evolution operators of
// Body et al. (ICDE 2003) §3.2: the four basic operators Insert,
// Exclude, Associate and Reclassify through which the administrator
// integrates every change, plus the six simple and three complex
// operations of §2.3 compiled to sequences of basic operators exactly as
// the paper's Table 11 does.
//
// The package also keeps an evolution log with the "short textual
// description of the transformations that have affected a member"
// required by the metadata design of §5.2.
package evolution

import (
	"fmt"
	"strings"

	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

// Op is a basic evolution operator application. Ops mutate the schema's
// dimensions and mapping set in place, through the core mutators; the
// schema invalidates its derived caches and records the write's
// footprint (core.Schema.Delta) on every such mutation automatically.
type Op interface {
	// Apply performs the operator against the schema.
	Apply(s *core.Schema) error
	// Describe renders the operator in the paper's Table 11 notation,
	// e.g. "Insert(Org, idV, V, T, {idP1}, ∅)".
	Describe() string
	// Touches lists the member versions the operator affects, for the
	// per-member evolution log.
	Touches() []core.MVID
}

// Insert is the basic operator
// Insert(Did, mvID, mName, [A], [level], ti, [tf], P, C): it inserts a
// new member version and creates temporal relationships to its parents P
// and from its children C over the version's validity.
type Insert struct {
	Dim      core.DimID
	ID       core.MVID
	Member   string
	Name     string
	Attrs    map[string]string
	Level    string
	Start    temporal.Instant
	End      temporal.Instant // zero value means Now (tf omitted)
	Parents  []core.MVID
	Children []core.MVID
}

func (op Insert) end() temporal.Instant {
	if op.End == 0 {
		return temporal.Now
	}
	return op.End
}

// Apply inserts the member version and its relationships.
func (op Insert) Apply(s *core.Schema) error {
	d := s.Dimension(op.Dim)
	if d == nil {
		return fmt.Errorf("evolution: unknown dimension %q", op.Dim)
	}
	valid := temporal.Between(op.Start, op.end())
	member := op.Member
	if member == "" {
		member = op.Name
	}
	mv := &core.MemberVersion{
		ID:     op.ID,
		Member: member,
		Name:   op.Name,
		Attrs:  op.Attrs,
		Level:  op.Level,
		Valid:  valid,
	}
	if err := d.AddVersion(mv); err != nil {
		return err
	}
	link := func(from, to core.MVID) error {
		other := from
		if other == op.ID {
			other = to
		}
		omv := d.Version(other)
		if omv == nil {
			return fmt.Errorf("evolution: Insert(%s): unknown relative %q", op.ID, other)
		}
		window := valid.Intersect(omv.Valid)
		if window.Empty() {
			return fmt.Errorf("evolution: Insert(%s): no common validity with %q", op.ID, other)
		}
		return d.AddRelationship(core.TemporalRelationship{From: from, To: to, Valid: window})
	}
	for _, p := range op.Parents {
		if err := link(op.ID, p); err != nil {
			return err
		}
	}
	for _, c := range op.Children {
		if err := link(c, op.ID); err != nil {
			return err
		}
	}
	return nil
}

// Describe renders the Table 11 notation.
func (op Insert) Describe() string {
	return fmt.Sprintf("Insert(%s, %s, %s, %s, {%s}, {%s})",
		op.Dim, op.ID, op.Name, op.Start, joinIDs(op.Parents), joinIDs(op.Children))
}

// Touches reports the inserted version.
func (op Insert) Touches() []core.MVID { return []core.MVID{op.ID} }

// Exclude is the basic operator Exclude(Did, mvID, tf): the member
// version is excluded on and after tf, i.e. its end time and the end of
// all relationships involving it are set to tf−1 (§3.2).
type Exclude struct {
	Dim core.DimID
	ID  core.MVID
	At  temporal.Instant
}

// Apply truncates the version and its relationships. It refuses, and
// changes nothing, when a stored fact holds the version at or after At
// (Schema.EndVersion): the facts are retracted or re-mapped first. WAL
// replay and followers apply records through here, so they refuse what
// the leader refuses.
func (op Exclude) Apply(s *core.Schema) error {
	return s.EndVersion(op.Dim, op.ID, op.At.Prev())
}

// Describe renders the Table 11 notation.
func (op Exclude) Describe() string {
	return fmt.Sprintf("Exclude(%s, %s, %s)", op.Dim, op.ID, op.At)
}

// Touches reports the excluded version.
func (op Exclude) Touches() []core.MVID { return []core.MVID{op.ID} }

// Associate is the basic operator Associate(Rmap): it checks a mapping
// relationship for consistency and adds it to the schema's set MR.
type Associate struct {
	Mapping core.MappingRelationship
}

// Apply registers the mapping relationship.
func (op Associate) Apply(s *core.Schema) error { return s.AddMapping(op.Mapping) }

// Describe renders the Table 11 notation, e.g.
// "Associate(idV1, idV12, {(x->x, em)}, {(x->0.5*x, am)})".
func (op Associate) Describe() string {
	return fmt.Sprintf("Associate(%s, %s, {%s}, {%s})",
		op.Mapping.From, op.Mapping.To,
		joinMappings(op.Mapping.Forward), joinMappings(op.Mapping.Backward))
}

// Touches reports both endpoints.
func (op Associate) Touches() []core.MVID {
	return []core.MVID{op.Mapping.From, op.Mapping.To}
}

// Reclassify is the basic operator
// Reclassify(Did, mvID, ti, [tf], OldParents, NewParents): it changes
// the position of the member version in the hierarchy by ending the
// relationships to OldParents at ti−1 and creating relationships to
// NewParents from ti (to tf). Either set may be empty.
type Reclassify struct {
	Dim        core.DimID
	ID         core.MVID
	Start      temporal.Instant
	End        temporal.Instant // zero value means Now
	OldParents []core.MVID
	NewParents []core.MVID
}

// Apply rewires the member version's parent relationships.
func (op Reclassify) Apply(s *core.Schema) error {
	d := s.Dimension(op.Dim)
	if d == nil {
		return fmt.Errorf("evolution: unknown dimension %q", op.Dim)
	}
	mv := d.Version(op.ID)
	if mv == nil {
		return fmt.Errorf("evolution: Reclassify: unknown member version %q", op.ID)
	}
	end := op.End
	if end == 0 {
		end = temporal.Now
	}
	for _, old := range op.OldParents {
		d.EndRelationship(op.ID, old, op.Start.Prev())
	}
	for _, p := range op.NewParents {
		pmv := d.Version(p)
		if pmv == nil {
			return fmt.Errorf("evolution: Reclassify: unknown parent %q", p)
		}
		window := temporal.Between(op.Start, end).
			Intersect(mv.Valid).Intersect(pmv.Valid)
		if window.Empty() {
			return fmt.Errorf("evolution: Reclassify(%s): no common validity with parent %q", op.ID, p)
		}
		if err := d.AddRelationship(core.TemporalRelationship{From: op.ID, To: p, Valid: window}); err != nil {
			return err
		}
	}
	return nil
}

// Describe renders the operator call.
func (op Reclassify) Describe() string {
	return fmt.Sprintf("Reclassify(%s, %s, %s, {%s}, {%s})",
		op.Dim, op.ID, op.Start, joinIDs(op.OldParents), joinIDs(op.NewParents))
}

// Touches reports the reclassified version and the parents involved.
func (op Reclassify) Touches() []core.MVID {
	out := []core.MVID{op.ID}
	out = append(out, op.OldParents...)
	out = append(out, op.NewParents...)
	return out
}

func joinIDs(ids []core.MVID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ", ")
}

func joinMappings(ms []core.MeasureMapping) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = m.String()
	}
	return strings.Join(parts, ", ")
}
