// Package metadata implements the metadata design of §5.2 of Body et
// al. (ICDE 2003). The paper distinguishes two categories:
//
//   - metadata related to the versions of members (validity interval,
//     member name, position in the hierarchy), stored with the
//     dimension tables and surfaced to the user;
//   - metadata related to the evolution of members: the mapping
//     relations with their k factors per measure and confidence codes
//     (the paper's Table 12), plus textual descriptions of the
//     transformations that affected each member.
//
// The package also exposes value lineage: "the user has a direct access
// to very precise information on the way the data were calculated and
// on the factors applied in conversions".
package metadata

import (
	"context"
	"fmt"
	"strings"

	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

// VersionInfo is the first §5.2 metadata category for one member
// version.
type VersionInfo struct {
	ID      core.MVID
	Member  string
	Name    string
	Level   string
	Valid   temporal.Interval
	Parents []string // display names of parents over the validity
	IsLeaf  bool
	Attrs   map[string]string
	DimID   core.DimID
	DimName string
}

// VersionInfoOf collects the member-version metadata for one version.
func VersionInfoOf(s *core.Schema, id core.MVID) (VersionInfo, error) {
	d := s.DimensionOf(id)
	if d == nil {
		return VersionInfo{}, fmt.Errorf("metadata: unknown member version %q", id)
	}
	mv := d.Version(id)
	info := VersionInfo{
		ID:      mv.ID,
		Member:  mv.Member,
		Name:    mv.DisplayName(),
		Level:   d.LevelOf(id, mv.Valid.Start),
		Valid:   mv.Valid,
		IsLeaf:  d.IsLeafVersion(id),
		Attrs:   mv.Attrs,
		DimID:   d.ID,
		DimName: d.Name,
	}
	seen := map[core.MVID]bool{}
	for _, elem := range d.ElementaryIntervals() {
		if !mv.Valid.Overlaps(elem) {
			continue
		}
		for _, p := range d.ParentsAt(id, elem.Intersect(mv.Valid).Start) {
			if !seen[p.ID] {
				seen[p.ID] = true
				info.Parents = append(info.Parents, p.DisplayName())
			}
		}
	}
	return info, nil
}

// MappingRow is one line of the paper's Table 12: a mapping relation
// with its per-measure k factor, the reverse k factor, and the
// qualitative confidence codes of both directions.
type MappingRow struct {
	From        string
	To          string
	K           []string // k factor (or function) per measure, forward
	KInv        []string // per measure, backward
	Conf        int      // prototype code of the forward confidence
	ConfInv     int      // prototype code of the backward confidence
	ConfName    string
	ConfInvName string
}

// MappingTable builds the Table-12 style table of mapping relations for
// the schema. Display names are used for From/To as in the paper.
func MappingTable(s *core.Schema) []MappingRow {
	var out []MappingRow
	for _, m := range s.Mappings() {
		row := MappingRow{
			From: displayName(s, m.From),
			To:   displayName(s, m.To),
		}
		// The prototype stores one confidence per relation direction
		// (§5.2, "we do not affect a confidence factor for each mapping
		// function but only for each mapping relation"): combine the
		// per-measure confidences.
		alg := s.ConfidenceAlgebra()
		fc, bc := core.SourceData, core.SourceData
		for i, mm := range m.Forward {
			row.K = append(row.K, kOf(mm.Fn))
			if i == 0 {
				fc = mm.CF
			} else {
				fc = alg.Combine(fc, mm.CF)
			}
		}
		for i, mm := range m.Backward {
			row.KInv = append(row.KInv, kOf(mm.Fn))
			if i == 0 {
				bc = mm.CF
			} else {
				bc = alg.Combine(bc, mm.CF)
			}
		}
		row.Conf, row.ConfInv = fc.PrototypeCode(), bc.PrototypeCode()
		row.ConfName, row.ConfInvName = fc.String(), bc.String()
		out = append(out, row)
	}
	return out
}

// kOf renders a mapper as the prototype's k factor when linear, its
// description otherwise.
func kOf(fn core.Mapper) string {
	if l, ok := fn.(core.Linear); ok {
		return fmt.Sprintf("%g", l.K)
	}
	return fn.String()
}

func displayName(s *core.Schema, id core.MVID) string {
	if mv := s.VersionOf(id); mv != nil {
		return mv.DisplayName()
	}
	return string(id)
}

// RenderMappingTable renders the Table 12 layout as text.
func RenderMappingTable(rows []MappingRow) string {
	var b strings.Builder
	b.WriteString("From | To | k | k-1 | Confidence | Confidence-1\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s | %s | %s | %s | %d | %d\n",
			r.From, r.To, strings.Join(r.K, ","), strings.Join(r.KInv, ","), r.Conf, r.ConfInv)
	}
	return b.String()
}

// LineageStep explains one source contribution to a mapped cell: which
// source fact flowed in, through which composed mapping function, with
// which confidence.
type LineageStep struct {
	SourceCoords core.Coords
	SourceTime   temporal.Instant
	SourceValues []float64
	// Fn and CF per measure describe the composed conversion applied.
	Fn []string
	CF []core.Confidence
}

// Explain computes the lineage of the cell at (coords, t) in the given
// version mode: every source fact that presents itself on those
// coordinates, with the composed mapping functions and confidence
// factors applied, read from the scan's own presentation
// (core.Schema.SourcesOf) over the instant's shards alone. For the
// temporally consistent mode the lineage of a cell is the source fact
// itself. ctx cancels the walk.
func Explain(ctx context.Context, s *core.Schema, mode core.Mode, coords core.Coords, t temporal.Instant) ([]LineageStep, error) {
	dims := s.Dimensions()
	if len(coords) != len(dims) {
		return nil, fmt.Errorf("metadata: %d coordinates for %d dimensions", len(coords), len(dims))
	}
	m := len(s.Measures())
	if mode.Kind == core.TCMKind {
		vals, ok := s.Facts().Lookup(coords, t)
		if !ok {
			return nil, nil
		}
		step := LineageStep{
			SourceCoords: coords.Clone(),
			SourceTime:   t,
			SourceValues: vals,
			Fn:           make([]string, m),
			CF:           make([]core.Confidence, m),
		}
		for i := range step.Fn {
			step.Fn[i] = core.Identity.String()
		}
		return []LineageStep{step}, nil
	}
	var out []LineageStep
	err := s.SourcesOf(ctx, mode, coords, t, func(src *core.Fact, per [][]core.MeasureMapping, cfs []core.Confidence) bool {
		fns := make([]string, m)
		for _, mms := range per {
			for k := range fns {
				if desc := mms[k].Fn.String(); fns[k] == "" {
					fns[k] = desc
				} else {
					fns[k] = fns[k] + " ∘ " + desc
				}
			}
		}
		out = append(out, LineageStep{
			SourceCoords: src.Coords.Clone(),
			SourceTime:   src.Time,
			SourceValues: append([]float64(nil), src.Values...),
			Fn:           fns,
			CF:           append([]core.Confidence(nil), cfs...),
		})
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderLineage renders lineage steps for display.
func RenderLineage(s *core.Schema, steps []LineageStep) string {
	var b strings.Builder
	for _, st := range steps {
		names := make([]string, len(st.SourceCoords))
		for i, id := range st.SourceCoords {
			names[i] = displayName(s, id)
		}
		fmt.Fprintf(&b, "from (%s) @ %s: values %v via %s [%s]\n",
			strings.Join(names, ", "), st.SourceTime, st.SourceValues,
			strings.Join(st.Fn, "; "), cfNames(st.CF))
	}
	return b.String()
}

func cfNames(cfs []core.Confidence) string {
	parts := make([]string, len(cfs))
	for i, c := range cfs {
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}
