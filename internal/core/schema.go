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
	// cached structure versions; invalidated on a dimension mutation.
	svCache []*StructureVersion
	// graph is the mapping graph of mappings under alg, built on first
	// use and dropped when either changes; resolution tables key on it.
	graph *mappingGraph
	// reroutes records that a write since Clone (or NewSchema) can have
	// rerouted a stored fact's rollup: Delta.Reroutes.
	reroutes bool
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
	s := &Schema{
		Name:     name,
		dimIndex: make(map[DimID]int),
		measures: append([]Measure(nil), measures...),
		alg:      PaperAlgebra(),
		swapID:   schemaSwapCounter.Add(1),
	}
	s.facts = newFactTable(s)
	return s
}

// SetConfidenceAlgebra replaces the ⊗cf algebra (Definition 6).
func (s *Schema) SetConfidenceAlgebra(alg ConfidenceAlgebra) {
	s.alg = alg
	s.reroutes = true
	s.mu.Lock()
	s.graph = nil
	s.mu.Unlock()
}

// mappingGraph returns the graph of the schema's mapping relationships,
// building it on first use after a change to them or to the algebra.
func (s *Schema) mappingGraph() *mappingGraph {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.graph == nil {
		s.graph = newMappingGraph(s.mappings, len(s.measures), s.alg)
	}
	return s.graph
}

// ConfidenceAlgebra returns the active ⊗cf algebra.
func (s *Schema) ConfidenceAlgebra() ConfidenceAlgebra { return s.alg }

// AddDimension registers a temporal dimension. The schema hooks the
// dimension's mutation callback, so later in-place mutations (evolution
// operators) invalidate the schema's derived caches automatically.
// Facts hold one coordinate per dimension, so every dimension comes
// before the first fact.
func (s *Schema) AddDimension(d *Dimension) error {
	if _, dup := s.dimIndex[d.ID]; dup {
		return fmt.Errorf("core: schema %s: duplicate dimension %q", s.Name, d.ID)
	}
	if s.facts.n != 0 {
		return fmt.Errorf("core: schema %s: dimension %q added after facts", s.Name, d.ID)
	}
	d.onMutate = s.mutated
	s.dimIndex[d.ID] = len(s.dims)
	s.dims = append(s.dims, d)
	s.facts = newFactTable(s)
	s.mutated(true)
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
// Associate operator's underlying primitive. It drops the mapping graph
// only: structure versions read the dimensions alone (Definition 9).
// The mapping graph is global, so any version mode's resolution may
// route through the new relationship: the write reroutes.
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
	s.reroutes = true
	s.mu.Lock()
	s.graph = nil
	s.mu.Unlock()
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
	return s.facts.Insert(coords, t, values...)
}

// RetractFact removes the fact stored at (coords, t) — the
// retract/correct API's schema-level primitive — and returns the old
// tuple.
// Retracting a tuple that does not exist is an error and mutates
// nothing, which is what makes batch retraction atomic at the serving
// tier (validate each record against the clone; any miss discards the
// whole clone).
func (s *Schema) RetractFact(coords Coords, t temporal.Instant) (*Fact, error) {
	if len(coords) != len(s.dims) {
		return nil, fmt.Errorf("core: retract with %d coordinates for %d dimensions", len(coords), len(s.dims))
	}
	if _, ok := s.facts.Lookup(coords, t); !ok {
		return nil, fmt.Errorf("core: no fact at %s %s to retract", strings.Trim(fmt.Sprint(coords), "[]"), t)
	}
	old, _ := s.facts.Retract(coords, t)
	return old, nil
}

// EndVersion ends member version id of dimension dim at end
// (Dimension.SetEnd), the Exclude operator's underlying primitive,
// unless a stored fact holds the version at an instant past end:
// ending it there would leave a fact whose coordinate is not valid at
// its instant (Definition 5), which no snapshot could load again. The
// error names the first such fact; the caller retracts or re-maps the
// facts first.
func (s *Schema) EndVersion(dim DimID, id MVID, end temporal.Instant) error {
	if err := s.CanEndVersion(dim, id, end); err != nil {
		return err
	}
	return s.dims[s.DimIndex(dim)].SetEnd(id, end)
}

// CanEndVersion returns the error EndVersion(dim, id, end) would
// return, changing nothing: nil when the version may end there.
func (s *Schema) CanEndVersion(dim DimID, id MVID, end temporal.Instant) error {
	i := s.DimIndex(dim)
	if i < 0 {
		return fmt.Errorf("core: unknown dimension %q", dim)
	}
	d := s.dims[i]
	mv := d.members[id]
	switch {
	case mv == nil:
		return fmt.Errorf("core: dimension %s: unknown member version %q", d.ID, id)
	case end < mv.Valid.Start:
		return fmt.Errorf("core: dimension %s: cannot end %q at %s before its start %s",
			d.ID, id, end, mv.Valid.Start)
	}
	if f, ok := s.facts.firstAfter(i, id, end); ok {
		return fmt.Errorf("core: dimension %s: cannot end %q at %s: the fact at %s %s holds it; retract it first",
			dim, id, end, strings.Trim(fmt.Sprint(f.Coords), "[]"), f.Time)
	}
	return nil
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
// are cloned copy-on-write (Dimension.Clone, FactTable.clone), so a
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
		swapID:   schemaSwapCounter.Add(1),
	}
	for _, d := range s.dims {
		cp := d.Clone()
		cp.onMutate = out.mutated
		out.dimIndex[d.ID] = len(out.dims)
		out.dims = append(out.dims, cp)
	}
	out.facts = s.facts.clone(out)
	// The structure-version partition depends only on the dimensions,
	// which were just cloned unchanged, so the inferred versions carry
	// over until a cloned dimension is mutated.
	s.mu.Lock()
	out.svCache, out.graph = s.svCache, s.graph
	s.mu.Unlock()
	return out
}

// mutated records a dimension mutation: it drops the structure
// versions, and marks the schema's Delta when the mutation can reroute
// a stored fact's rollup.
func (s *Schema) mutated(reroutes bool) {
	s.mu.Lock()
	s.svCache = nil
	s.mu.Unlock()
	s.reroutes = s.reroutes || reroutes
}

// Invalidate drops derived caches. Dimension mutations through the
// registered Dimension/Schema API invalidate automatically (the schema
// hooks every dimension's mutation callback in AddDimension and Clone);
// this remains for external callers that mutate shared state the schema
// cannot observe. It assumes nothing about what changed: every
// dimension sweeps its chain again and builds its rollup tables anew.
func (s *Schema) Invalidate() {
	for _, d := range s.dims {
		d.derived.mu.Lock()
		d.derived.chain.Store(nil)
		d.derived.prev = nil
		d.derived.mu.Unlock()
	}
	s.mutated(true)
}

// StructureVersion is a maximal interval over which every dimension is
// unchanged (Definition 9). Its structure is D(t) of each schema
// dimension at one instant — for an inferred version Valid.Start, since
// D is constant over Valid — so the version holds that instant, not a
// copy of the structure: the serving path reads the schema's own
// dimensions there (readAt).
type StructureVersion struct {
	// ID is "V1", "V2", ... in chronological order.
	ID string
	// Valid is the version's time slice; structure versions partition
	// the schema's lifetime.
	Valid temporal.Interval

	// sig is the structural signature over Valid: the tuple of the
	// per-dimension chain hashes, hex-encoded ("-" where a dimension
	// holds nothing), constant throughout since a structure version is a
	// maximal interval of constant tuple. Set by StructureVersions; empty
	// on composed versions. Result caches compare it to decide that a
	// mode's structure is unchanged.
	sig string
	// picked holds, on a composed version, the instant each schema
	// dimension is read at (nil: every one at Valid.Start). dims holds a
	// snapshot of each, in schema order, for the accessors alone.
	picked []temporal.Instant
	dims   []*Dimension

	// restricted holds the Restrict copies behind Dimension and
	// Dimensions, built on first call.
	restrictOnce sync.Once
	restricted   []*Dimension
}

// Signature returns the canonical structural signature of the version
// (empty on composed versions). Result caches mix it into their keys so
// entries are bound to the exact structure they were computed in.
func (v *StructureVersion) Signature() string { return v.sig }

// readAt returns the instant whose D(t) is the version's structure of
// the dimension at schema position pos.
func (v *StructureVersion) readAt(pos int) temporal.Instant {
	if v.picked != nil {
		return v.picked[pos]
	}
	return v.Valid.Start
}

// Dimension returns this version's restriction of the dimension: a
// copy holding the member versions and relationships of D(t) at the
// version's instant.
func (v *StructureVersion) Dimension(id DimID) *Dimension {
	for _, d := range v.Dimensions() {
		if d.ID == id {
			return d
		}
	}
	return nil
}

// Dimensions returns the restricted dimensions in schema order. They
// are built on the first call and kept; queries never read them.
func (v *StructureVersion) Dimensions() []*Dimension {
	v.restrictOnce.Do(func() {
		v.restricted = make([]*Dimension, len(v.dims))
		for i, d := range v.dims {
			at := v.readAt(i)
			v.restricted[i] = d.Restrict(temporal.Between(at, at))
		}
	})
	return v.restricted
}

// Has reports whether the member version belongs to this structure
// version: it is valid at the instant its dimension is read at.
func (v *StructureVersion) Has(id MVID) bool {
	for i, d := range v.dims {
		if mv := d.Version(id); mv != nil {
			return mv.ValidAt(v.readAt(i))
		}
	}
	return false
}

// String renders "V1 [01/2001 ; 12/2001]".
func (v *StructureVersion) String() string { return fmt.Sprintf("%s %s", v.ID, v.Valid) }

// StructureVersions infers the structure versions of the schema
// (Definition 9): the joint partition of the dimensions' version chains
// — maximal intervals over which every dimension holds the same member
// versions and relationships — skipping instants where no dimension
// holds anything. Results are cached until a dimension is mutated.
func (s *Schema) StructureVersions() []*StructureVersion {
	return s.StructureVersionsContext(context.Background())
}

// StructureVersionsContext is StructureVersions recording a
// "structure_versions" span on the context's trace when it has to
// derive (a cached answer records nothing). Only the dimensions mutated
// since their chains were last swept are swept again; the span names
// them.
//
// The pieces of the joint partition are cut where some dimension's
// chain entry starts or ends, and that dimension holds another hash or
// none on the other side, so adjacent pieces never share a tuple: the
// partition is maximal as cut.
func (s *Schema) StructureVersionsContext(ctx context.Context) []*StructureVersion {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.svCache != nil {
		return s.svCache
	}
	_, sp := obs.StartSpan(ctx, "structure_versions")
	start := time.Now()

	var entries []temporal.Interval
	var swept []string
	for _, d := range s.dims {
		if d.derived.chain.Load() == nil {
			swept = append(swept, string(d.ID))
		}
		for _, e := range d.chain() {
			entries = append(entries, e.valid)
		}
	}
	out := []*StructureVersion{}
	dims := s.snapshots()
	sig := make([]string, len(s.dims))
	for _, piece := range temporal.Partition(entries) {
		for i, d := range s.dims {
			sig[i] = "-"
			if e := entryAt(d.chain(), piece.Start); e != nil {
				sig[i] = fmt.Sprintf("%016x%016x", e.hash.hi, e.hash.lo)
			}
		}
		out = append(out, &StructureVersion{ID: fmt.Sprintf("V%d", len(out)+1), Valid: piece, sig: strings.Join(sig, ","), dims: dims})
	}
	s.svCache = out

	metStructureVersionsSeconds.Observe(time.Since(start).Seconds())
	sp.SetAttr("versions", len(out))
	sp.SetAttr("swept", strings.Join(swept, ","))
	sp.End()
	return out
}

// snapshots returns Dimension.snapshot of every schema dimension, for
// the versions derived or composed over them.
func (s *Schema) snapshots() []*Dimension {
	out := make([]*Dimension, len(s.dims))
	for i, d := range s.dims {
		out[i] = d.snapshot()
	}
	return out
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
