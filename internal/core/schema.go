package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mvolap/internal/obs"
	"mvolap/internal/temporal"
)

// Schema is the Temporal Multidimensional Schema of Definition 8:
// temporal dimensions, a set of mapping relationships, measures, and the
// temporally consistent fact table. The time dimension T of the paper is
// the implicit discrete axis of temporal.Instant; queries roll it up to
// calendar grains through TimeGrain.
type Schema struct {
	Name string

	dims     []*Dimension
	dimIndex map[DimID]int
	measures []Measure
	mappings []MappingRelationship
	alg      ConfidenceAlgebra
	facts    *FactTable

	// mu guards the derived caches below so concurrent readers
	// (queries) are safe. Mutations of dimensions, mappings and facts
	// are NOT safe concurrently with queries; evolve first, query after.
	mu sync.Mutex
	// cached structure versions; invalidated on mutation.
	svCache []*StructureVersion
	// svPrev holds the structure versions of the last generation whose
	// cache was invalidated, and svDirtyFrom the earliest mutation window
	// reported since they were captured (temporal.Origin: unknown). The
	// next StructureVersions derivation carries every version of svPrev
	// that ends before the window over by pointer and derives only the
	// rest of the axis; there it still reuses any version whose interval
	// and structural signature are unchanged — together with its
	// restricted dimensions and their warm derived rollup caches —
	// instead of re-restricting every dimension. svDirtyFrom means
	// nothing while svPrev is nil.
	svPrev      []*StructureVersion
	svDirtyFrom temporal.Instant
	// cached MultiVersion Fact Table; invalidated on mutation.
	mvftCache *MultiVersionFactTable
	// swapID is a process-unique identity for this schema value,
	// assigned at construction and on every Clone. The serving tier
	// mutates by clone-then-swap, so the swapID distinguishes the
	// pre- and post-mutation states of a served schema: result caches
	// key on it and are implicitly invalidated by every swap.
	swapID uint64
}

// schemaSwapCounter issues process-unique schema identities.
var schemaSwapCounter atomic.Uint64

// SwapID returns the process-unique identity of this schema value.
// Clones (the serving tier's copy-on-write mutation unit) get a fresh
// identity, so a SwapID seen twice refers to the same immutable-while-
// served state.
func (s *Schema) SwapID() uint64 { return s.swapID }

// NewSchema creates a schema with the given measures, using the paper's
// Example 5 confidence algebra.
func NewSchema(name string, measures ...Measure) *Schema {
	return &Schema{
		Name:     name,
		dimIndex: make(map[DimID]int),
		measures: append([]Measure(nil), measures...),
		alg:      PaperAlgebra(),
		facts:    NewFactTable(len(measures)),
		swapID:   schemaSwapCounter.Add(1),
	}
}

// SetConfidenceAlgebra replaces the ⊗cf algebra (Definition 6).
func (s *Schema) SetConfidenceAlgebra(alg ConfidenceAlgebra) { s.alg = alg }

// ConfidenceAlgebra returns the active ⊗cf algebra.
func (s *Schema) ConfidenceAlgebra() ConfidenceAlgebra { return s.alg }

// AddDimension registers a temporal dimension. The schema hooks the
// dimension's mutation callback, so later in-place mutations (evolution
// operators) invalidate the schema's derived caches automatically.
func (s *Schema) AddDimension(d *Dimension) error {
	if _, dup := s.dimIndex[d.ID]; dup {
		return fmt.Errorf("core: schema %s: duplicate dimension %q", s.Name, d.ID)
	}
	d.onMutate = s.invalidateFrom
	s.dimIndex[d.ID] = len(s.dims)
	s.dims = append(s.dims, d)
	s.invalidate()
	return nil
}

// Dimension returns the dimension with the given ID, or nil.
func (s *Schema) Dimension(id DimID) *Dimension {
	if i, ok := s.dimIndex[id]; ok {
		return s.dims[i]
	}
	return nil
}

// DimIndex returns the position of the dimension in coordinate vectors,
// or -1.
func (s *Schema) DimIndex(id DimID) int {
	if i, ok := s.dimIndex[id]; ok {
		return i
	}
	return -1
}

// Dimensions returns the dimensions in registration order. The slice is
// shared; callers must not mutate it.
func (s *Schema) Dimensions() []*Dimension { return s.dims }

// Measures returns the schema measures. The slice is shared.
func (s *Schema) Measures() []Measure { return s.measures }

// MeasureIndex returns the index of the named measure, or -1.
func (s *Schema) MeasureIndex(name string) int {
	for i, m := range s.measures {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// Facts returns the temporally consistent fact table.
func (s *Schema) Facts() *FactTable { return s.facts }

// AddMapping registers a mapping relationship after validating it, the
// Associate operator's underlying primitive.
func (s *Schema) AddMapping(m MappingRelationship) error {
	if err := m.Validate(len(s.measures)); err != nil {
		return err
	}
	if s.versionOf(m.From) == nil {
		return fmt.Errorf("core: mapping %s→%s: unknown member version %q", m.From, m.To, m.From)
	}
	if s.versionOf(m.To) == nil {
		return fmt.Errorf("core: mapping %s→%s: unknown member version %q", m.From, m.To, m.To)
	}
	s.mappings = append(s.mappings, m)
	s.invalidate()
	return nil
}

// Mappings returns the registered mapping relationships. The slice is
// shared.
func (s *Schema) Mappings() []MappingRelationship { return s.mappings }

func (s *Schema) versionOf(id MVID) *MemberVersion {
	for _, d := range s.dims {
		if mv := d.Version(id); mv != nil {
			return mv
		}
	}
	return nil
}

// VersionOf locates a member version across all dimensions.
func (s *Schema) VersionOf(id MVID) *MemberVersion { return s.versionOf(id) }

// DimensionOf locates the dimension containing the member version.
func (s *Schema) DimensionOf(id MVID) *Dimension {
	for _, d := range s.dims {
		if d.Version(id) != nil {
			return d
		}
	}
	return nil
}

// InsertFact records source data for leaf member versions valid at t
// (Definition 5). Each coordinate must identify a member version of the
// corresponding dimension, valid at t.
func (s *Schema) InsertFact(coords Coords, t temporal.Instant, values ...float64) error {
	if len(coords) != len(s.dims) {
		return fmt.Errorf("core: fact with %d coordinates for %d dimensions", len(coords), len(s.dims))
	}
	for i, id := range coords {
		mv := s.dims[i].Version(id)
		if mv == nil {
			return fmt.Errorf("core: fact coordinate %q not in dimension %s", id, s.dims[i].ID)
		}
		if !mv.ValidAt(t) {
			return fmt.Errorf("core: fact coordinate %q not valid at %s (valid %v)", id, t, mv.Valid)
		}
	}
	s.mu.Lock()
	s.mvftCache = nil // new source data invalidates mapped presentations
	s.mu.Unlock()
	return s.facts.Insert(coords, t, values...)
}

// RetractFact removes the fact stored at (coords, t) — the
// retract/correct API's schema-level primitive — and returns the old
// tuple so the caller can carry it in a Delta for incremental unfold.
// Retracting a tuple that does not exist is an error and mutates
// nothing, which is what makes batch retraction atomic at the serving
// tier (validate each record against the clone; any miss discards the
// whole clone).
func (s *Schema) RetractFact(coords Coords, t temporal.Instant) (*Fact, error) {
	if len(coords) != len(s.dims) {
		return nil, fmt.Errorf("core: retract with %d coordinates for %d dimensions", len(coords), len(s.dims))
	}
	old, ok := s.facts.Retract(coords, t)
	if !ok {
		return nil, fmt.Errorf("core: no fact at %s %s to retract", coords.Key(), t)
	}
	s.mu.Lock()
	s.mvftCache = nil // removed source data invalidates mapped presentations
	s.mu.Unlock()
	return old, nil
}

// MustInsertFact is InsertFact panicking on error; for fixtures.
func (s *Schema) MustInsertFact(coords Coords, t temporal.Instant, values ...float64) {
	if err := s.InsertFact(coords, t, values...); err != nil {
		panic(err)
	}
}

// Validate checks all dimensions and mapping relationships.
func (s *Schema) Validate() error {
	for _, d := range s.dims {
		if err := d.Validate(); err != nil {
			return err
		}
	}
	for _, m := range s.mappings {
		if err := m.Validate(len(s.measures)); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a copy-on-write copy of the schema in O(dimensions)
// plus the fact key index's bounded top: dimensions and the fact table
// are cloned copy-on-write (Dimension.Clone, FactTable.Clone), so a
// write copies only what it mutates — a fact batch no dimension, an
// evolve the dimensions it touches; the mapping list is shared and
// copied by the first AddMapping; derived caches are carried as
// described below. It enables copy-on-write evolution in the serving
// tier — apply operators to the clone while queries keep running,
// race-free, on the original, then swap pointers. Mapping functions and
// the confidence algebra are shared; both are immutable by contract.
//
// Clone writes the ownership state of the receiver's dimensions and
// fact table: it needs the writer's exclusion, not the readers'. A
// published schema is never mutated.
func (s *Schema) Clone() *Schema {
	out := &Schema{
		Name:     s.Name,
		dimIndex: make(map[DimID]int, len(s.dimIndex)),
		measures: append([]Measure(nil), s.measures...),
		// Clipped: AddMapping's append then copies instead of writing
		// into capacity the receiver may also append to.
		mappings: slices.Clip(s.mappings),
		alg:      s.alg,
		facts:    s.facts.Clone(),
		swapID:   schemaSwapCounter.Add(1),
	}
	for _, d := range s.dims {
		cp := d.Clone()
		cp.onMutate = out.invalidateFrom
		out.dimIndex[d.ID] = len(out.dims)
		out.dims = append(out.dims, cp)
	}
	// The structure-version partition depends only on the dimensions,
	// which were just cloned unchanged, so the inferred versions
	// (frozen, read-only snapshots) carry over. A later mutation of a
	// cloned dimension clears the copy through its onMutate hook, making
	// it the clone's svPrev; a base that was itself invalidated and never
	// derived again hands on its own svPrev and window instead.
	s.mu.Lock()
	out.svCache, out.svPrev, out.svDirtyFrom = s.svCache, s.svPrev, s.svDirtyFrom
	s.mu.Unlock()
	return out
}

// invalidateFrom drops the derived caches by unlinking them, after a
// mutation that left every D(t) with t < from as it was (see
// Dimension.notifyMutate). A MultiVersionFactTable handle obtained
// before the mutation — including one with materializations still in
// flight — keeps building into and serving its own (now detached)
// snapshot; only handles fetched from MultiVersion() after the mutation
// see the new state.
func (s *Schema) invalidateFrom(from temporal.Instant) {
	s.mu.Lock()
	if s.svCache != nil {
		s.svPrev, s.svDirtyFrom = s.svCache, from
	} else {
		s.svDirtyFrom = temporal.Min(s.svDirtyFrom, from)
	}
	s.svCache = nil
	s.mvftCache = nil
	s.mu.Unlock()
}

// invalidate is invalidateFrom for changes with no known window: the
// mapping set, the dimension list, state the schema cannot observe.
func (s *Schema) invalidate() { s.invalidateFrom(temporal.Origin) }

// Invalidate drops derived caches. Dimension mutations through the
// registered Dimension/Schema API invalidate automatically (the schema
// hooks every dimension's mutation callback in AddDimension and Clone);
// this remains for external callers that mutate shared state the schema
// cannot observe. It assumes nothing about what changed: the next
// derivation carries no structure version over.
func (s *Schema) Invalidate() { s.invalidate() }

// StructureVersion is a maximal interval over which every dimension is
// unchanged (Definition 9), together with the restriction of each
// dimension to that interval.
type StructureVersion struct {
	// ID is "V1", "V2", ... in chronological order.
	ID string
	// Valid is the version's time slice; structure versions partition
	// the schema's lifetime.
	Valid temporal.Interval

	dims     []*Dimension
	dimIndex map[DimID]int
	// sig is the canonical structural signature over Valid (constant
	// throughout, since structure versions are maximal constant-signature
	// intervals). Set by StructureVersions; empty on composed versions.
	// Incremental maintenance compares it to decide retention without
	// re-encoding the structure.
	sig string
}

// Signature returns the canonical structural signature of the version
// (empty on composed versions). Result caches mix it into their keys so
// entries are bound to the exact structure they were computed in.
func (v *StructureVersion) Signature() string { return v.sig }

// Dimension returns this version's restriction of the dimension.
func (v *StructureVersion) Dimension(id DimID) *Dimension {
	if i, ok := v.dimIndex[id]; ok {
		return v.dims[i]
	}
	return nil
}

// Dimensions returns the restricted dimensions in schema order.
func (v *StructureVersion) Dimensions() []*Dimension { return v.dims }

// Has reports whether the member version is valid throughout this
// structure version.
func (v *StructureVersion) Has(id MVID) bool {
	for _, d := range v.dims {
		if d.Version(id) != nil {
			return true
		}
	}
	return false
}

// String renders "V1 [01/2001 ; 12/2001]".
func (v *StructureVersion) String() string { return fmt.Sprintf("%s %s", v.ID, v.Valid) }

// StructureVersions infers the structure versions of the schema
// (Definition 9): the endpoints of all member version and relationship
// valid times partition history into elementary intervals; adjacent
// intervals with identical restrictions coalesce. Results are cached
// until the schema is mutated.
func (s *Schema) StructureVersions() []*StructureVersion {
	return s.StructureVersionsContext(context.Background())
}

// StructureVersionsContext is StructureVersions recording a
// "structure_versions" span on the context's trace when it has to
// derive (a cached answer records nothing).
//
// A derivation after a mutation is scoped to the mutation window: the
// evolution operators act at an instant and leave every validity before
// it alone (§3.2), so the previous generation's versions that end
// before the window are carried over as they are — same pointer, same
// positional ID, no signature computed — and only the rest of the axis
// is partitioned and signed. The carry stops one instant short of the
// window: the version that touches it is derived again, because it may
// now merge with its new right-hand neighbour.
func (s *Schema) StructureVersionsContext(ctx context.Context) []*StructureVersion {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.svCache != nil {
		return s.svCache
	}
	_, sp := obs.StartSpan(ctx, "structure_versions")
	start := time.Now()

	from := temporal.Origin
	if s.svPrev != nil {
		from = s.svDirtyFrom
	}
	carried := 0
	for carried < len(s.svPrev) && s.svPrev[carried].Valid.End.Next() < from {
		carried++
	}
	out := append(make([]*StructureVersion, 0, carried+2), s.svPrev[:carried]...)
	// region is the part of the axis still to derive. Its left edge is a
	// version boundary in the new generation too: both instants around
	// it precede the window, so their signatures still differ.
	region := temporal.Always
	if carried > 0 {
		region.Start = out[carried-1].Valid.End.Next()
	}

	var ivs []temporal.Interval
	for _, d := range s.dims {
		for _, id := range d.order {
			if iv := d.members[id].Valid.Intersect(region); !iv.Empty() {
				ivs = append(ivs, iv)
			}
		}
		for _, r := range d.rels {
			if iv := r.Valid.Intersect(region); !iv.Empty() {
				ivs = append(ivs, iv)
			}
		}
	}
	// Merge adjacent elementary intervals with the same structural
	// signature.
	type candidate struct {
		valid temporal.Interval
		sig   string
	}
	var merged []candidate
	for _, e := range temporal.Partition(ivs) {
		c := candidate{valid: e, sig: s.signatureAt(e.Start)}
		if n := len(merged); n > 0 && merged[n-1].sig == c.sig && merged[n-1].valid.Adjacent(c.valid) {
			merged[n-1].valid = merged[n-1].valid.Hull(c.valid)
			continue
		}
		merged = append(merged, c)
	}
	// Inside the region, versions from the invalidated generation are
	// reused when their interval and structural signature are unchanged:
	// the signature canonically encodes the member-version and
	// relationship sets valid over the interval, and evolution never
	// rewrites a member version's content in place (content changes are
	// modelled as new versions), so an equal signature over an equal
	// interval means the restricted dimensions — frozen snapshots sharing
	// nothing mutable — are identical, warm derived rollup caches
	// included. Only versions the mutation actually split or reshaped pay
	// the restriction again.
	prev := make(map[candidate]*StructureVersion, len(s.svPrev)-carried)
	for _, sv := range s.svPrev[carried:] {
		if len(sv.dims) != len(s.dims) {
			continue
		}
		ok := true
		for j, d := range s.dims {
			if sv.dims[j].ID != d.ID {
				ok = false
				break
			}
		}
		if ok {
			prev[candidate{sv.Valid, sv.sig}] = sv
		}
	}
	for _, c := range merged {
		id := fmt.Sprintf("V%d", len(out)+1)
		if old, ok := prev[c]; ok {
			// A fresh wrapper (the positional ID may differ) over the
			// shared read-only restrictions.
			out = append(out, &StructureVersion{
				ID:       id,
				Valid:    c.valid,
				dims:     old.dims,
				dimIndex: old.dimIndex,
				sig:      c.sig,
			})
			continue
		}
		sv := &StructureVersion{
			ID:       id,
			Valid:    c.valid,
			dimIndex: make(map[DimID]int),
			sig:      c.sig,
		}
		for j, d := range s.dims {
			sv.dimIndex[d.ID] = j
			sv.dims = append(sv.dims, d.Restrict(c.valid))
		}
		out = append(out, sv)
	}
	s.svCache = out
	s.svPrev = nil

	metStructureVersionsCarried.Add(int64(carried))
	metStructureVersionsRecomputed.Add(int64(len(out) - carried))
	metStructureVersionsSeconds.Observe(time.Since(start).Seconds())
	sp.SetAttr("carried", carried)
	sp.SetAttr("recomputed", len(out)-carried)
	sp.SetAttr("from", from.String())
	sp.End()
	return out
}

// signatureAt canonically encodes which member versions and
// relationships are valid at t across all dimensions.
func (s *Schema) signatureAt(t temporal.Instant) string {
	var parts []string
	for _, d := range s.dims {
		for _, mv := range d.VersionsAt(t) {
			parts = append(parts, string(d.ID)+"/"+string(mv.ID))
		}
		for _, r := range d.RelationshipsAt(t) {
			parts = append(parts, string(d.ID)+"/"+string(r.From)+">"+string(r.To))
		}
	}
	sort.Strings(parts)
	var b strings.Builder
	for _, p := range parts {
		b.WriteString(p)
		b.WriteByte('|')
	}
	return b.String()
}

// VersionAt returns the structure version whose valid time contains t,
// or nil. VersionAt(temporal.Year(2001)) is the paper's "the 2001
// organization".
func (s *Schema) VersionAt(t temporal.Instant) *StructureVersion {
	// The versions are sorted and disjoint: only the last one starting at
	// or before t can contain it.
	svs := s.StructureVersions()
	i := sort.Search(len(svs), func(i int) bool { return svs[i].Valid.Start > t })
	if i > 0 && svs[i-1].Valid.Contains(t) {
		return svs[i-1]
	}
	return nil
}

// VersionByID returns the structure version with the given ID, or nil.
func (s *Schema) VersionByID(id string) *StructureVersion {
	for _, v := range s.StructureVersions() {
		if v.ID == id {
			return v
		}
	}
	return nil
}

// ModeKind distinguishes the temporally consistent presentation from
// version-mapped presentations (Definition 10).
type ModeKind uint8

const (
	// TCMKind is the temporally consistent mode tcm: every value is
	// presented in the structure that was valid when it was recorded.
	TCMKind ModeKind = iota
	// VersionKind presents all data mapped into one structure version.
	VersionKind
)

// Mode is one Temporal Mode of Presentation (Definition 10).
type Mode struct {
	Kind    ModeKind
	Version *StructureVersion // set for VersionKind
}

// TCM returns the temporally consistent mode.
func TCM() Mode { return Mode{Kind: TCMKind} }

// InVersion returns the mode presenting data mapped into v.
func InVersion(v *StructureVersion) Mode { return Mode{Kind: VersionKind, Version: v} }

// String renders "tcm" or the version ID.
func (m Mode) String() string {
	if m.Kind == TCMKind {
		return "tcm"
	}
	if m.Version == nil {
		return "version(?)"
	}
	return m.Version.ID
}

// Modes returns the full set TMP = {tcm, VM1, ..., VMN} of temporal
// modes of presentation for the schema (Definition 10).
func (s *Schema) Modes() []Mode {
	out := []Mode{TCM()}
	for _, v := range s.StructureVersions() {
		out = append(out, InVersion(v))
	}
	return out
}
