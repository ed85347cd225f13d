package core

import (
	"fmt"

	"mvolap/internal/temporal"
)

// MVID uniquely identifies a Member Version within a schema.
type MVID string

// DimID uniquely identifies a Temporal Dimension within a schema.
type DimID string

// MemberVersion is a state of a member, unchanged and coherent over a
// time slice (Definition 1). A member may have several valid versions at
// the same instant (valid times may overlap), so no exact history
// partition is required of the designer — unlike Kimball's Type Two
// slowly changing dimensions.
type MemberVersion struct {
	// ID is the unique identifier MVid.
	ID MVID
	// Member names the underlying member this version belongs to.
	// Several versions of the same member share this name.
	Member string
	// Name is the display name of this particular version. It defaults
	// to Member when empty.
	Name string
	// Attrs holds the optional user-defined attributes [A].
	Attrs map[string]string
	// Level optionally tags the schema level of this version. When all
	// versions of a dimension carry a level tag, levels are the
	// equivalence classes of the tag; otherwise they are derived from
	// DAG depth (Definition 4).
	Level string
	// Valid is the valid time [ti, tf] of this version.
	Valid temporal.Interval

	// ord is the version's dense ordinal: its position in the insertion
	// order of the dimension that holds it. Dimension.AddVersion and
	// Restrict assign it; Clone keeps the order and so the ordinal.
	// Rollup tables and dice columns are arrays indexed by it.
	ord int32
}

// DisplayName returns Name, falling back to Member.
func (mv *MemberVersion) DisplayName() string {
	if mv.Name != "" {
		return mv.Name
	}
	return mv.Member
}

// ValidAt reports whether the version is valid at instant t.
func (mv *MemberVersion) ValidAt(t temporal.Instant) bool { return mv.Valid.Contains(t) }

// String renders the version as the paper does in Example 1:
// <id, 'name', level, ti, tf>.
func (mv *MemberVersion) String() string {
	lvl := ""
	if mv.Level != "" {
		lvl = ", " + mv.Level
	}
	return fmt.Sprintf("<%s, %q%s, %s, %s>", mv.ID, mv.DisplayName(), lvl, mv.Valid.Start, mv.Valid.End)
}

// Clone returns a deep copy of the member version.
func (mv *MemberVersion) Clone() *MemberVersion {
	cp := *mv
	if mv.Attrs != nil {
		cp.Attrs = make(map[string]string, len(mv.Attrs))
		for k, v := range mv.Attrs {
			cp.Attrs[k] = v
		}
	}
	return &cp
}

// TemporalRelationship is an explicit hierarchical link between two
// member versions, representing a rollup function (Definition 2). From
// is the child, To the parent. Its valid time must be included in the
// intersection of the valid times of both member versions; AddRelationship
// enforces this.
type TemporalRelationship struct {
	From  MVID
	To    MVID
	Valid temporal.Interval
}

// String renders the relationship as <from, to, ti, tf>.
func (r TemporalRelationship) String() string {
	return fmt.Sprintf("<%s, %s, %s, %s>", r.From, r.To, r.Valid.Start, r.Valid.End)
}
