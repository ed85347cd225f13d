package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"mvolap/internal/temporal"
)

// MappedFact is one tuple of the MultiVersion Fact Table (Definition 11)
// for a particular temporal mode of presentation: coordinates valid in
// that mode, the (possibly mapped) measure values, and one confidence
// factor per value. Schema.Present hands them out as views; callers
// must not mutate one.
type MappedFact struct {
	Coords Coords
	Time   temporal.Instant
	Values []float64
	CFs    []Confidence
	// Sources counts how many presentations were folded into this tuple
	// (greater than one after a merge transition).
	Sources int
}

// Present yields f'|m, the MultiVersion Fact Table restricted to the
// temporal mode m (Definition 11), for the reproduction tier's
// relational renderings and the tests; it stops when yield returns
// false. Queries never call it: they fold the same presentations into
// cells as they scan (Schema.ExecuteContext).
//
// In tcm every live fact is yielded as stored, with confidence sd and
// one source. In a version mode every live fact goes through the
// scan's presenter — one emission per combination of its coordinates'
// presentations, values through the mapping functions, confidences
// under ⊗cf — and every emission into a merge map, so emissions on one
// (coordinates, instant) fold into one tuple as a scan's merge map
// folds them; the tuples come out in first-presentation order. dropped
// counts the facts the mode cannot present at all, as a query's Result
// does (countDropped).
//
// Present and SourcesOf present through one walk (Schema.walk). The
// yielded MappedFact is the walk's scratch: it is valid only until yield
// returns.
func (s *Schema) Present(m Mode, yield func(*MappedFact) bool) (dropped int, err error) {
	ft := s.facts
	nd, nm := ft.nd, ft.nm
	f := &MappedFact{Coords: make(Coords, nd), Values: make([]float64, nm), CFs: make([]Confidence, nm), Sources: 1}
	merged := newMergeMap(nd, s.measures, s.alg)
	defer merged.release()
	res, err := s.walk(context.Background(), m, temporal.Always, func(sh *factShard, j int, pr *presenter) bool {
		if pr != nil {
			merged.add(pr.coords, sh.at(j), pr.values, pr.cfs)
			return true
		}
		ft.ids(f.Coords, sh.coords[j*nd:(j+1)*nd])
		f.Time = sh.at(j)
		sh.valuesAt(f.Values, j)
		return yield(f)
	})
	if err != nil {
		return 0, err
	}
	for x, t := range merged.times {
		ft.ids(f.Coords, merged.coords[x*nd:(x+1)*nd])
		f.Time = t
		f.Values = merged.values[x*nm : (x+1)*nm : (x+1)*nm]
		f.CFs = merged.cfs[x*nm : (x+1)*nm : (x+1)*nm]
		f.Sources = int(merged.n[x])
		if !yield(f) {
			break
		}
	}
	return countDropped(ft, res), nil
}

// SourcesOf yields the lineage of the tuple of f'|m at (coords, t) in
// version mode m (§5.2): every live source fact at instant t that
// presents on coords, in store order, with per dimension the composed
// mapping functions and confidences of its presentation (one
// MeasureMapping per measure) and the confidences they combine to under
// ⊗cf, as the scan presents it. A tcm cell is its stored fact, read by
// FactTable.Lookup; SourcesOf refuses tcm. Coordinates that name no
// member version of their dimension, one each, have no source. It stops
// when yield returns false, and when ctx is done, returning ctx's
// error. The yielded values are the walk's scratch, valid only until
// yield returns.
func (s *Schema) SourcesOf(ctx context.Context, m Mode, coords Coords, t temporal.Instant, yield func(src *Fact, per [][]MeasureMapping, cfs []Confidence) bool) error {
	if m.Kind == TCMKind {
		return fmt.Errorf("core: SourcesOf needs a version mode; a tcm cell is its stored fact")
	}
	ft := s.facts
	nd := ft.nd
	// On failure target is shorter than nd, and matches nothing.
	target, _ := ft.ordinals(make([]int32, 0, nd), coords)
	src := &Fact{Coords: make(Coords, nd)}
	per := make([][]MeasureMapping, nd)
	_, err := s.walk(ctx, m, temporal.Between(t, t), func(sh *factShard, j int, pr *presenter) bool {
		if !slices.Equal(pr.coords, target) {
			return true
		}
		for i := range per {
			per[i] = pr.at[i].per
		}
		ft.ids(src.Coords, sh.coords[j*nd:(j+1)*nd])
		src.Time, src.Values = sh.at(j), pr.src
		return yield(src, per, pr.cfs)
	})
	return err
}

// walk presents the live tuples whose instant lies in rng in mode m, in
// store order, and returns the mode's resolution tables (nil in tcm).
// It calls yield with each tuple's shard and offset: in a version mode
// once per emission, with pr holding it; in tcm, where a tuple presents
// as itself, once per tuple with pr nil. Shards whose zone map cannot
// hold rng are skipped, and ctx is checked every cancelCheckStride
// tuples. It stops when yield returns false.
func (s *Schema) walk(ctx context.Context, m Mode, rng temporal.Interval, yield func(sh *factShard, j int, pr *presenter) bool) ([]*resolveTable, error) {
	ft := s.facts
	nd, nm := ft.nd, ft.nm
	var res []*resolveTable
	var pr *presenter
	switch {
	case m.Kind == TCMKind:
	case m.Kind != VersionKind:
		return nil, fmt.Errorf("core: unknown mode kind %d", m.Kind)
	case m.Version == nil:
		return nil, fmt.Errorf("core: version mode without structure version")
	default:
		res = s.resolveTables(m.Version)
		pr = newPresenter(res, nil, nm, s.alg, s.mappingGraph().identity)
	}
	steps := 0
	for _, sh := range ft.shards {
		if sh.n == 0 || !sh.zoneMap(nd).overlapsTime(rng) {
			continue
		}
		for j := 0; j < sh.n; j++ {
			if steps%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("core: presentation cancelled: %w", err)
				}
			}
			steps++
			if !sh.isLive(j) || !rng.Contains(sh.at(j)) {
				continue
			}
			if pr == nil {
				if !yield(sh, j, nil) {
					return res, nil
				}
			} else if pr.start(sh, j) {
				for pr.next() {
					if !yield(sh, j, pr) {
						return res, nil
					}
				}
			}
		}
	}
	return res, nil
}

// mergeMap holds presented tuples, one per (target coordinates,
// instant), each folded in the order its presentations arrive
// (Definition 11's f' is a function): values under the measure
// aggregate ⊕ — Avg a mean and Count the number of the non-NaN
// contributions, both through contribution counts — and confidences
// under ⊗cf, the tuples in first-sight order. A scan holds the
// presentations on targets that can merge in one; Present holds all of
// a mode's. Both take one from mergeMaps and put it back emptied, so
// its index and columns keep their capacity from use to use.
type mergeMap struct {
	nd       int
	measures []Measure
	alg      ConfidenceAlgebra
	// last maps a key hash to 1 + the newest tuple with it; next chains
	// each tuple to 1 + the previous one with the same hash.
	last   map[uint64]int32
	next   []int32
	coords []int32
	times  []temporal.Instant
	values []float64
	cfs    []Confidence
	// avgN counts, per tuple and measure, the non-NaN contributions
	// folded into the value, so an Avg merges as a true mean and a Count
	// counts; n counts each tuple's presentations.
	avgN []int32
	n    []int32
}

var mergeMaps = sync.Pool{New: func() any { return &mergeMap{last: make(map[uint64]int32)} }}

// newMergeMap returns an empty merge map from the pool.
func newMergeMap(nd int, measures []Measure, alg ConfidenceAlgebra) *mergeMap {
	m := mergeMaps.Get().(*mergeMap)
	m.nd, m.measures, m.alg = nd, measures, alg
	return m
}

// release empties the map and puts it back in the pool.
func (m *mergeMap) release() {
	clear(m.last)
	m.next, m.coords, m.times = m.next[:0], m.coords[:0], m.times[:0]
	m.values, m.cfs, m.avgN, m.n = m.values[:0], m.cfs[:0], m.avgN[:0], m.n[:0]
	m.measures, m.alg = nil, nil
	mergeMaps.Put(m)
}

// add folds one presentation into the tuple at (coords, t), creating it
// on first sight. The slices are the caller's; add copies them.
func (m *mergeMap) add(coords []int32, t temporal.Instant, values []float64, cfs []Confidence) {
	nd, nm := m.nd, len(m.measures)
	h := tupleKey(coords, t)
	head := m.last[h]
	for x := int(head) - 1; x >= 0; x = int(m.next[x]) - 1 {
		if m.times[x] != t || !slices.Equal(m.coords[x*nd:(x+1)*nd], coords) {
			continue
		}
		vals, avgN, cfd := m.values[x*nm:(x+1)*nm], m.avgN[x*nm:(x+1)*nm], m.cfs[x*nm:(x+1)*nm]
		for k, ms := range m.measures {
			switch ms.Agg {
			case Avg:
				vals[k], avgN[k] = foldAvg(vals[k], avgN[k], values[k])
			case Count:
				avgN[k] += counted(values[k])
				vals[k] = countValue(avgN[k])
			default:
				vals[k] = foldPair(ms.Agg, vals[k], values[k])
			}
			cfd[k] = m.alg.Combine(cfd[k], cfs[k])
		}
		m.n[x]++
		return
	}
	m.next = append(m.next, head)
	m.last[h] = int32(len(m.times)) + 1
	m.coords = append(m.coords, coords...)
	m.times = append(m.times, t)
	m.cfs = append(m.cfs, cfs...)
	for k, v := range values {
		n := counted(v)
		if m.measures[k].Agg == Count {
			v = countValue(n)
		}
		m.values = append(m.values, v)
		m.avgN = append(m.avgN, n)
	}
	m.n = append(m.n, 1)
}

// countValue is a Count measure's value over n non-NaN contributions:
// n, or NaN, the absent value, when there is none.
func countValue(n int32) float64 {
	if n == 0 {
		return math.NaN()
	}
	return float64(n)
}

// counted is the contribution count of one value to an Avg or a Count:
// NaN, the absent value, contributes nothing.
func counted(v float64) int32 {
	if math.IsNaN(v) {
		return 0
	}
	return 1
}

// foldPair folds two values under Sum, Min or Max, with NaN treated as
// the absent value. A merge map folds Avg and Count through their
// contribution counts instead (foldAvg, countValue).
func foldPair(kind AggKind, a, b float64) float64 {
	switch {
	case math.IsNaN(a):
		return b
	case math.IsNaN(b):
		return a
	}
	switch kind {
	case Sum:
		return a + b
	case Min:
		return math.Min(a, b)
	case Max:
		return math.Max(a, b)
	}
	return math.NaN()
}

// foldAvg folds one new contribution b into a running mean a carrying
// na non-NaN contributions, returning the new mean and count. Unlike
// the old pairwise (a+b)/2, the running count makes a 3-way merge the
// true mean of its sources regardless of fold order.
func foldAvg(a float64, na int32, b float64) (mean float64, n int32) {
	aNaN, bNaN := math.IsNaN(a), math.IsNaN(b)
	switch {
	case aNaN && bNaN:
		return math.NaN(), na
	case aNaN:
		return b, 1
	case bNaN:
		return a, na
	}
	n = na + 1
	return (a*float64(na) + b) / float64(n), n
}

// cancelCheckStride is how many tuples the scan processes between
// context checks: frequent enough that cancellation is prompt even on
// modest tables, rare enough to stay off the per-tuple hot path.
const cancelCheckStride = 256

// MultiVersionFactTable was the handle on f' materialized mode by mode.
// No mode is materialized any more: Schema.Present lists a mode's
// tuples, and a query presents them as it scans.
//
// Deprecated: only the benchmark module's serial replay reads it; it
// goes with that replay (ROADMAP item 2).
type MultiVersionFactTable struct{}

// MultiVersion returns a handle that materializes nothing.
//
// Deprecated: use Schema.Present. It stays for the benchmark module's
// serial replay and goes with it (ROADMAP item 2).
func (s *Schema) MultiVersion() *MultiVersionFactTable { return &MultiVersionFactTable{} }

// Materializations reports how many modes the handle built: none.
//
// Deprecated: no mode is built; it always returns 0.
func (mv *MultiVersionFactTable) Materializations() int64 { return 0 }
