package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"mvolap/internal/temporal"
)

// Dimension is a Temporal Dimension (Definition 3): a set of member
// versions and a set of temporal relationships that together form a
// time-indexed directed graph. For any instant t the restriction D(t)
// must be a DAG representing the dimension structure at t.
//
// Hierarchy levels are not declared; they emerge from the instances
// (Definition 4), which lets the dimension represent non-onto,
// non-covering and multiple hierarchies, and makes schema evolution a
// special case of instance evolution (§2.3 of the paper).
type Dimension struct {
	ID   DimID
	Name string

	members map[MVID]*MemberVersion
	order   []MVID // insertion order, for deterministic iteration
	rels    []TemporalRelationship

	parentRels map[MVID][]int // child MVID -> indexes into rels
	childRels  map[MVID][]int // parent MVID -> indexes into rels

	// shared reports that members (with the member versions they point
	// to), order, rels and both relationship indexes may be referenced by
	// another Dimension value: Clone marks both sides, and every mutator
	// calls own first, which copies them and clears the flag.
	shared bool

	// onMutate, when set, runs after every successful structural
	// mutation, told whether the mutation can reroute a stored fact's
	// rollup. The owning schema hooks its cache invalidation and its
	// Delta here, so evolution operators mutating a dimension in place
	// can never leave stale structure versions behind or a write's
	// footprint unrecorded.
	onMutate func(reroutes bool)

	// base is the number of member versions the dimension held when
	// Clone made it: a version with a smaller ordinal predates the clone.
	base int32

	// derived holds the version chain and its rollup tables, shared by
	// every query over this dimension value and, through Clone, by every
	// generation with the same structure (see dimDerived).
	derived *dimDerived
}

// NewDimension creates an empty temporal dimension.
func NewDimension(id DimID, name string) *Dimension {
	return &Dimension{
		ID:         id,
		Name:       name,
		members:    make(map[MVID]*MemberVersion),
		parentRels: make(map[MVID][]int),
		childRels:  make(map[MVID][]int),
		derived:    &dimDerived{},
	}
}

// AddVersion inserts a member version. It fails if the ID is already
// taken or the valid time is empty.
func (d *Dimension) AddVersion(mv *MemberVersion) error {
	if mv.ID == "" {
		return fmt.Errorf("core: dimension %s: member version with empty ID", d.ID)
	}
	if _, dup := d.members[mv.ID]; dup {
		return fmt.Errorf("core: dimension %s: duplicate member version %q", d.ID, mv.ID)
	}
	if mv.Valid.Empty() {
		return fmt.Errorf("core: dimension %s: member version %q has empty valid time %v", d.ID, mv.ID, mv.Valid)
	}
	if mv.Member == "" {
		mv.Member = string(mv.ID)
	}
	d.own()
	mv.ord = int32(len(d.order))
	d.members[mv.ID] = mv
	d.order = append(d.order, mv.ID)
	// A levelled version is a fresh member no stored fact holds. An
	// unlevelled one can switch the dimension from tagged levels to
	// derived depth levels (Definition 4), renaming every member's level.
	d.notifyMutate(mv.Level == "")
	return nil
}

// notifyMutate reports a structural change to the owning schema, with
// whether it can reroute a stored fact's rollup (Delta.Reroutes), and
// moves this dimension onto new derived state, which sweeps its chain
// again on first use and takes over the tables of every entry whose
// hash the old chain — or, if it never swept, the chain it would have
// taken over from — still has. Building new state rather than clearing
// the old keeps the old chain intact for every generation that still
// shares the old structure value; mutation only ever happens on an
// unpublished clone (copy-on-write), so no concurrent reader observes
// the swap.
func (d *Dimension) notifyMutate(reroutes bool) {
	der := d.derived
	der.mu.Lock()
	prev := der.prev
	if c := der.chain.Load(); c != nil {
		prev = *c
	}
	der.mu.Unlock()
	d.derived = &dimDerived{prev: prev}
	if d.onMutate != nil {
		d.onMutate(reroutes)
	}
}

// AddRelationship inserts a temporal relationship. Definition 2 requires
// the relationship's valid time to be included in the intersection of
// the valid times of both member versions; violations are rejected.
//
// One edge is stored as maximal pieces: a relationship that overlaps or
// is adjacent to stored pieces of the same edge extends the earliest of
// them (and absorbs the others) instead of being appended. Restrict
// wants one stored piece covering the whole interval it restricts to;
// an edge ended and re-created in adjacent pieces (RECLASSIFY … FROM p
// TO p) would otherwise drop out of a restriction to an interval it
// spans.
func (d *Dimension) AddRelationship(r TemporalRelationship) error {
	child, ok := d.members[r.From]
	if !ok {
		return fmt.Errorf("core: dimension %s: relationship child %q not found", d.ID, r.From)
	}
	parent, ok := d.members[r.To]
	if !ok {
		return fmt.Errorf("core: dimension %s: relationship parent %q not found", d.ID, r.To)
	}
	if r.From == r.To {
		return fmt.Errorf("core: dimension %s: self relationship on %q", d.ID, r.From)
	}
	if r.Valid.Empty() {
		return fmt.Errorf("core: dimension %s: relationship %s has empty valid time", d.ID, r)
	}
	window := child.Valid.Intersect(parent.Valid)
	if !window.ContainsInterval(r.Valid) {
		return fmt.Errorf("core: dimension %s: relationship %s exceeds the intersection %v of its member validities",
			d.ID, r, window)
	}
	d.own()
	first, absorbed := -1, false
	for _, idx := range d.parentRels[r.From] {
		piece := &d.rels[idx]
		if piece.To != r.To || !(piece.Valid.Overlaps(r.Valid) || piece.Valid.Adjacent(r.Valid)) {
			continue
		}
		if first < 0 {
			first = idx
			piece.Valid = piece.Valid.Hull(r.Valid)
			continue
		}
		// r bridged two stored pieces: the first absorbs this one.
		d.rels[first].Valid = d.rels[first].Valid.Hull(piece.Valid)
		piece.Valid = temporal.Interval{Start: 1, End: 0}
		absorbed = true
	}
	switch {
	case first < 0:
		idx := len(d.rels)
		d.rels = append(d.rels, r)
		d.parentRels[r.From] = append(d.parentRels[r.From], idx)
		d.childRels[r.To] = append(d.childRels[r.To], idx)
	case absorbed:
		d.compactRels()
	}
	// An edge up from a version created since the clone extends no path
	// a stored fact rolls up through: no fact can hold that version yet.
	d.notifyMutate(child.ord < d.base)
	return nil
}

// Version returns the member version with the given ID, or nil.
func (d *Dimension) Version(id MVID) *MemberVersion { return d.members[id] }

// Versions returns all member versions in insertion order.
func (d *Dimension) Versions() []*MemberVersion {
	out := make([]*MemberVersion, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.members[id])
	}
	return out
}

// Relationships returns a copy of all temporal relationships.
func (d *Dimension) Relationships() []TemporalRelationship {
	out := make([]TemporalRelationship, len(d.rels))
	copy(out, d.rels)
	return out
}

// VersionsAt returns D(t): the member versions valid at t, in insertion
// order.
func (d *Dimension) VersionsAt(t temporal.Instant) []*MemberVersion {
	var out []*MemberVersion
	for _, id := range d.order {
		if mv := d.members[id]; mv.ValidAt(t) {
			out = append(out, mv)
		}
	}
	return out
}

// ParentsAt returns the parents of id in the DAG D(t), in member order:
// a walk up D(t) — and with it every rollup table — then depends only on
// what D(t) holds, never on the order its relationships were stored in
// (an edge ended and re-created lands elsewhere in storage).
func (d *Dimension) ParentsAt(id MVID, t temporal.Instant) []*MemberVersion {
	var out []*MemberVersion
	for _, idx := range d.parentRels[id] {
		r := d.rels[idx]
		if r.Valid.Contains(t) {
			if p := d.members[r.To]; p != nil && p.ValidAt(t) {
				out = append(out, p)
			}
		}
	}
	slices.SortFunc(out, func(a, b *MemberVersion) int { return cmp.Compare(a.ord, b.ord) })
	return out
}

// ChildrenAt returns the children of id in the DAG D(t).
func (d *Dimension) ChildrenAt(id MVID, t temporal.Instant) []*MemberVersion {
	var out []*MemberVersion
	for _, idx := range d.childRels[id] {
		r := d.rels[idx]
		if r.Valid.Contains(t) {
			if c := d.members[r.From]; c != nil && c.ValidAt(t) {
				out = append(out, c)
			}
		}
	}
	return out
}

// HasChildrenAt reports whether id has at least one child at t.
func (d *Dimension) HasChildrenAt(id MVID, t temporal.Instant) bool {
	for _, idx := range d.childRels[id] {
		r := d.rels[idx]
		if r.Valid.Contains(t) {
			if c := d.members[r.From]; c != nil && c.ValidAt(t) {
				return true
			}
		}
	}
	return false
}

// LeavesAt returns the member versions valid at t with no children at t.
func (d *Dimension) LeavesAt(t temporal.Instant) []*MemberVersion {
	var out []*MemberVersion
	for _, id := range d.order {
		mv := d.members[id]
		if mv.ValidAt(t) && !d.HasChildrenAt(id, t) {
			out = append(out, mv)
		}
	}
	return out
}

// IsLeafVersion reports whether the member version is a Leaf Member
// Version in the paper's sense: it has no children at at least one
// instant of its validity. The check is performed on the elementary
// intervals of the dimension, so it is exact.
func (d *Dimension) IsLeafVersion(id MVID) bool {
	mv := d.members[id]
	if mv == nil {
		return false
	}
	for _, elem := range d.ElementaryIntervals() {
		x := elem.Intersect(mv.Valid)
		if x.Empty() {
			continue
		}
		if !d.HasChildrenAt(id, x.Start) {
			return true
		}
	}
	return false
}

// ElementaryIntervals returns the partition of the dimension's lifetime
// into maximal intervals over which no member version or relationship
// starts or ends. The structure D(t) is constant within each elementary
// interval.
func (d *Dimension) ElementaryIntervals() []temporal.Interval {
	ivs := make([]temporal.Interval, 0, len(d.members)+len(d.rels))
	for _, id := range d.order {
		ivs = append(ivs, d.members[id].Valid)
	}
	for _, r := range d.rels {
		ivs = append(ivs, r.Valid)
	}
	return temporal.Partition(ivs)
}

// DepthAt returns the depth of the member version in D(t): roots have
// depth 0, and every other node is one deeper than its shallowest
// parent. It returns -1 if id is not valid at t.
func (d *Dimension) DepthAt(id MVID, t temporal.Instant) int {
	mv := d.members[id]
	if mv == nil || !mv.ValidAt(t) {
		return -1
	}
	depth, ok := d.depthAt(id, t, make(map[MVID]int))
	if !ok {
		return -1
	}
	return depth
}

func (d *Dimension) depthAt(id MVID, t temporal.Instant, memo map[MVID]int) (int, bool) {
	if v, ok := memo[id]; ok {
		if v == -2 { // cycle guard
			return 0, false
		}
		return v, true
	}
	memo[id] = -2
	parents := d.ParentsAt(id, t)
	if len(parents) == 0 {
		memo[id] = 0
		return 0, true
	}
	best := -1
	for _, p := range parents {
		pd, ok := d.depthAt(p.ID, t, memo)
		if !ok {
			return 0, false
		}
		if best == -1 || pd+1 < best {
			best = pd + 1
		}
	}
	memo[id] = best
	return best, true
}

// HasExplicitLevels reports whether every member version carries a Level
// tag, enabling the first levelling strategy of Definition 4.
func (d *Dimension) HasExplicitLevels() bool {
	if len(d.order) == 0 {
		return false
	}
	for _, id := range d.order {
		if d.members[id].Level == "" {
			return false
		}
	}
	return true
}

// Level is a named set of member versions (Definition 4).
type Level struct {
	// Name is the level tag, or "depth-N" for derived levels.
	Name string
	// Depth is the DAG depth for derived levels, -1 for explicit ones.
	Depth int
	// Members are the member versions belonging to the level.
	Members []*MemberVersion
}

// LevelsAt computes the levels of D(t) following Definition 4: if every
// member version carries an explicit Level tag, levels are the
// equivalence classes of the tag; otherwise they are the sets of member
// versions of equal depth in the DAG of D(t). The result is ordered from
// the root level down.
func (d *Dimension) LevelsAt(t temporal.Instant) []Level {
	valid := d.VersionsAt(t)
	if len(valid) == 0 {
		return nil
	}
	if d.HasExplicitLevels() {
		byName := make(map[string][]*MemberVersion)
		var names []string
		// Order level names by the minimum depth of their members so the
		// result still reads root-first.
		minDepth := make(map[string]int)
		for _, mv := range valid {
			if _, seen := byName[mv.Level]; !seen {
				names = append(names, mv.Level)
				minDepth[mv.Level] = int(^uint(0) >> 1)
			}
			byName[mv.Level] = append(byName[mv.Level], mv)
			if dep := d.DepthAt(mv.ID, t); dep >= 0 && dep < minDepth[mv.Level] {
				minDepth[mv.Level] = dep
			}
		}
		sort.SliceStable(names, func(i, j int) bool { return minDepth[names[i]] < minDepth[names[j]] })
		out := make([]Level, 0, len(names))
		for _, n := range names {
			out = append(out, Level{Name: n, Depth: -1, Members: byName[n]})
		}
		return out
	}
	byDepth := make(map[int][]*MemberVersion)
	maxDepth := 0
	for _, mv := range valid {
		dep := d.DepthAt(mv.ID, t)
		if dep < 0 {
			continue
		}
		byDepth[dep] = append(byDepth[dep], mv)
		if dep > maxDepth {
			maxDepth = dep
		}
	}
	var out []Level
	for dep := 0; dep <= maxDepth; dep++ {
		if ms := byDepth[dep]; len(ms) > 0 {
			out = append(out, Level{Name: fmt.Sprintf("depth-%d", dep), Depth: dep, Members: ms})
		}
	}
	return out
}

// LevelOf returns the level name of the member version at t, using the
// same strategy as LevelsAt.
func (d *Dimension) LevelOf(id MVID, t temporal.Instant) string {
	mv := d.members[id]
	if mv == nil || !mv.ValidAt(t) {
		return ""
	}
	if d.HasExplicitLevels() {
		return mv.Level
	}
	dep := d.DepthAt(id, t)
	if dep < 0 {
		return ""
	}
	return fmt.Sprintf("depth-%d", dep)
}

// ValidateAt checks that D(t) is a DAG (Definition 3).
func (d *Dimension) ValidateAt(t temporal.Instant) error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[MVID]int)
	var visit func(id MVID) error
	visit = func(id MVID) error {
		switch color[id] {
		case grey:
			return fmt.Errorf("core: dimension %s: cycle through %q at %s", d.ID, id, t)
		case black:
			return nil
		}
		color[id] = grey
		for _, p := range d.ParentsAt(id, t) {
			if err := visit(p.ID); err != nil {
				return err
			}
		}
		color[id] = black
		return nil
	}
	for _, mv := range d.VersionsAt(t) {
		if err := visit(mv.ID); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the dimension's global invariants: every relationship
// valid time within its members' intersection (re-checked in case of
// later mutation), and D(t) acyclic at every elementary interval.
func (d *Dimension) Validate() error {
	for _, r := range d.rels {
		window := d.members[r.From].Valid.Intersect(d.members[r.To].Valid)
		if !window.ContainsInterval(r.Valid) {
			return fmt.Errorf("core: dimension %s: relationship %s exceeds member validity %v", d.ID, r, window)
		}
	}
	for _, elem := range d.ElementaryIntervals() {
		if err := d.ValidateAt(elem.Start); err != nil {
			return err
		}
	}
	return nil
}

// Restrict returns the restriction of the dimension to the elements
// (member versions and relationships) valid during the whole of the
// given interval. StructureVersion.Dimension builds its copies with it;
// the serving path reads the dimension itself instead. The returned
// dimension shares no mutable state with the original.
func (d *Dimension) Restrict(iv temporal.Interval) *Dimension {
	out := NewDimension(d.ID, d.Name)
	for _, id := range d.order {
		mv := d.members[id]
		if mv.Valid.ContainsInterval(iv) {
			cp := mv.Clone()
			cp.ord = int32(len(out.order))
			out.members[cp.ID] = cp
			out.order = append(out.order, cp.ID)
		}
	}
	for _, r := range d.rels {
		if r.Valid.ContainsInterval(iv) && out.members[r.From] != nil && out.members[r.To] != nil {
			out.rels = append(out.rels, r)
		}
	}
	out.index()
	return out
}

// snapshot returns a header over what Restrict reads — the member
// versions, shared, and a copy of the relationships — and nothing
// else: no mutation hook, which would keep the owning schema and its
// mode tables alive as long as the header, and no rollup cache. The
// relationships are copied because an in-place mutator rewrites their
// slice (compactRels); the members it only adds to or ends.
func (d *Dimension) snapshot() *Dimension {
	return &Dimension{ID: d.ID, Name: d.Name, members: d.members, order: d.order, rels: slices.Clone(d.rels)}
}

// Clone returns a copy-on-write copy of the dimension: the clone shares
// the member versions, the relationships and their indexes with the
// receiver, and whichever side is mutated first copies them (own). It
// backs the serving tier's copy-on-write evolution — queries keep
// reading the old structure while operators mutate the clone — at
// O(1), so a write that mutates no dimension copies none.
//
// Clone writes the receiver's ownership flag: it needs the writer's
// exclusion, not the readers'. A published dimension is never mutated.
func (d *Dimension) Clone() *Dimension {
	d.shared = true
	return &Dimension{
		ID:         d.ID,
		Name:       d.Name,
		members:    d.members,
		order:      d.order,
		rels:       d.rels,
		parentRels: d.parentRels,
		childRels:  d.childRels,
		shared:     true,
		base:       int32(len(d.order)),
		derived:    d.derived,
	}
}

// own gives the dimension private copies of everything Clone shares —
// member versions cloned, the relationship slice copied and its indexes
// rebuilt — before a mutator writes. A dimension no Clone has touched
// since it last owned its state copies nothing.
func (d *Dimension) own() {
	if !d.shared {
		return
	}
	members := make(map[MVID]*MemberVersion, len(d.members))
	for _, id := range d.order {
		members[id] = d.members[id].Clone()
	}
	d.members = members
	d.order = append([]MVID(nil), d.order...)
	d.rels = append([]TemporalRelationship(nil), d.rels...)
	d.index()
	d.shared = false
	metDimensionCopies.With(string(d.ID)).Inc()
}

// SetEnd sets the end of the valid time of a member version; it
// implements the core of the Exclude evolution operator. When it
// truncates, relationships involving the version are truncated as
// well, per §3.2 of the paper, and relationships emptied by the
// truncation are dropped. An end later than the current one extends the
// version (its relationships stay as they are).
func (d *Dimension) SetEnd(id MVID, end temporal.Instant) error {
	mv := d.members[id]
	if mv == nil {
		return fmt.Errorf("core: dimension %s: unknown member version %q", d.ID, id)
	}
	if end < mv.Valid.Start {
		return fmt.Errorf("core: dimension %s: cannot end %q at %s before its start %s",
			d.ID, id, end, mv.Valid.Start)
	}
	d.own()
	mv = d.members[id] // own replaced the shared version with a private copy
	mv.Valid.End = end
	for i := range d.rels {
		r := &d.rels[i]
		if (r.From == id || r.To == id) && r.Valid.End > end {
			r.Valid.End = end
		}
	}
	// Drop relationships emptied by the truncation.
	d.compactRels()
	d.notifyMutate(true)
	return nil
}

// EndRelationship truncates all relationships between the child from
// and the parent to; it implements part of the Reclassify operator.
// Relationships emptied by the truncation are dropped.
func (d *Dimension) EndRelationship(from, to MVID, end temporal.Instant) {
	d.own()
	for i := range d.rels {
		r := &d.rels[i]
		if r.From == from && r.To == to && r.Valid.End > end {
			r.Valid.End = end
		}
	}
	d.compactRels()
	d.notifyMutate(true)
}

func (d *Dimension) compactRels() {
	kept := d.rels[:0]
	for _, r := range d.rels {
		if !r.Valid.Empty() {
			kept = append(kept, r)
		}
	}
	d.rels = kept
	d.index()
}

// index rebuilds both relationship indexes from rels.
func (d *Dimension) index() {
	d.parentRels = make(map[MVID][]int)
	d.childRels = make(map[MVID][]int)
	for i, r := range d.rels {
		d.parentRels[r.From] = append(d.parentRels[r.From], i)
		d.childRels[r.To] = append(d.childRels[r.To], i)
	}
}

// under returns, by member ordinal, whether the member version lies in
// D(at) under a root or is one: the roots are the member versions valid
// at `at` that root accepts, found in one pass over the dimension, and
// one walk down from them marks the rest. It is HasAncestorNamedAt for
// every member at once, a query's dice.
func (d *Dimension) under(at temporal.Instant, root func(*MemberVersion) bool) []bool {
	in := make([]bool, len(d.order))
	var down func(id MVID)
	down = func(id MVID) {
		for _, idx := range d.childRels[id] {
			r := d.rels[idx]
			if c := d.members[r.From]; r.Valid.Contains(at) && c.ValidAt(at) && !in[c.ord] {
				in[c.ord] = true
				down(c.ID)
			}
		}
	}
	for _, id := range d.order {
		if mv := d.members[id]; !in[mv.ord] && mv.ValidAt(at) && root(mv) {
			in[mv.ord] = true
			down(id)
		}
	}
	return in
}

// HasAncestorNamedAt reports whether the member version, or any of its
// ancestors in D(t), carries one of the display names. It backs
// member-sliced fact extraction (data marts); a query dices through
// Dimension.under.
func (d *Dimension) HasAncestorNamedAt(id MVID, names map[string]bool, t temporal.Instant) bool {
	seen := make(map[MVID]bool)
	var walk func(cur MVID) bool
	walk = func(cur MVID) bool {
		if seen[cur] {
			return false
		}
		seen[cur] = true
		mv := d.members[cur]
		if mv == nil || !mv.ValidAt(t) {
			return false
		}
		if names[mv.DisplayName()] {
			return true
		}
		for _, p := range d.ParentsAt(cur, t) {
			if walk(p.ID) {
				return true
			}
		}
		return false
	}
	return walk(id)
}
