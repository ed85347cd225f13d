package warehouse

import (
	"fmt"
	"math"

	"mvolap/internal/core"
	"mvolap/internal/logical"
	"mvolap/internal/rolap"
	"mvolap/internal/temporal"
)

// StoragePolicy selects how version-mapped tuples are stored in the
// MultiVersion DW.
type StoragePolicy uint8

const (
	// Full duplicates the values in all versions, the paper prototype's
	// approach (§5.1).
	Full StoragePolicy = iota
	// Delta stores the temporally consistent rows plus only the
	// version-mapped rows that differ from them — the improvement the
	// paper sketches ("we could only store differences between versions
	// instead of replicating all values").
	Delta
)

// String names the policy.
func (p StoragePolicy) String() string {
	switch p {
	case Full:
		return "full"
	case Delta:
		return "delta"
	}
	return fmt.Sprintf("StoragePolicy(%d)", uint8(p))
}

// RedundancyStats quantifies the §5.1 duplication overhead.
type RedundancyStats struct {
	// SourceRows is the size of the temporally consistent fact table.
	SourceRows int
	// LogicalRows is the size of the fully materialized multiversion
	// fact table (all modes).
	LogicalRows int
	// StoredRows is what the chosen policy actually stores.
	StoredRows int
}

// Redundancy is the ratio of logical rows to source rows: how many
// times each source value is replicated on average under Full storage.
func (r RedundancyStats) Redundancy() float64 {
	if r.SourceRows == 0 {
		return 0
	}
	return float64(r.LogicalRows) / float64(r.SourceRows)
}

// Saving is the fraction of logical rows the policy avoided storing.
func (r RedundancyStats) Saving() float64 {
	if r.LogicalRows == 0 {
		return 0
	}
	return 1 - float64(r.StoredRows)/float64(r.LogicalRows)
}

// MultiVersionDW is the second tier of the §5.1 architecture: the
// multiversion fact table materialized over a flat TMP dimension, with
// confidence factors as measures (prototype integer codes).
type MultiVersionDW struct {
	// DB holds:
	//   mvfact          (tmp, d_<dim>..., t, <measure>..., cf_<measure>...)
	//   tmp_modes       the flat TMP dimension (§4.1)
	//   dim_<id>_star   star dimension tables per structure version
	DB     *rolap.Database
	Policy StoragePolicy
	Stats  RedundancyStats

	schema *core.Schema
}

// BuildMultiVersion infers the MultiVersion DW from a temporal DW's
// schema: it materializes every temporal mode of presentation into the
// mvfact table under the chosen storage policy.
func BuildMultiVersion(s *core.Schema, policy StoragePolicy) (*MultiVersionDW, error) {
	db := rolap.NewDatabase("multiversion_dw")
	// The flat TMP dimension (§4.1).
	tmpTab, err := db.CreateTable("tmp_modes", rolap.Schema{{Name: "tmp", Type: rolap.Text}})
	if err != nil {
		return nil, err
	}
	for _, m := range logical.TMPDimensionOf(s).Members {
		if err := tmpTab.Insert(m); err != nil {
			return nil, err
		}
	}
	// Star dimension tables for rollups inside version modes.
	if _, err := logical.BuildDimensionTables(s, db, logical.Star); err != nil {
		return nil, err
	}

	factSchema := rolap.Schema{{Name: "tmp", Type: rolap.Text}}
	for _, d := range s.Dimensions() {
		factSchema = append(factSchema, rolap.Column{Name: "d_" + string(d.ID), Type: rolap.Text})
	}
	factSchema = append(factSchema, rolap.Column{Name: "t", Type: rolap.Time})
	for _, m := range s.Measures() {
		factSchema = append(factSchema, rolap.Column{Name: m.Name, Type: rolap.Float})
	}
	for _, m := range s.Measures() {
		factSchema = append(factSchema, rolap.Column{Name: "cf_" + m.Name, Type: rolap.Int})
	}
	fact, err := db.CreateTable("mvfact", factSchema)
	if err != nil {
		return nil, err
	}

	dw := &MultiVersionDW{DB: db, Policy: policy, schema: s}
	insert := func(mode string, f *core.MappedFact) error {
		row := make([]any, 0, len(factSchema))
		row = append(row, mode)
		for _, id := range f.Coords {
			row = append(row, string(id))
		}
		row = append(row, f.Time)
		for _, v := range f.Values {
			if math.IsNaN(v) {
				row = append(row, nil)
			} else {
				row = append(row, v)
			}
		}
		for _, cf := range f.CFs {
			row = append(row, cf.PrototypeCode())
		}
		return fact.Insert(row...)
	}

	// Present every mode (Definition 11) and store its tuples.
	for _, mode := range s.Modes() {
		var ierr error
		_, err := s.Present(mode, func(f *core.MappedFact) bool {
			dw.Stats.LogicalRows++
			if policy == Delta && mode.Kind == core.VersionKind && isSourceIdentical(s, f) {
				return true
			}
			if ierr = insert(mode.String(), f); ierr != nil {
				return false
			}
			dw.Stats.StoredRows++
			return true
		})
		if err == nil {
			err = ierr
		}
		if err != nil {
			return nil, err
		}
	}
	dw.Stats.SourceRows = s.Facts().Len()
	if err := fact.CreateIndex("tmp"); err != nil {
		return nil, err
	}
	return dw, nil
}

// isSourceIdentical reports whether a mapped tuple is exactly the
// source tuple (same coordinates, same values, all source-data
// confidence) and can therefore be reconstructed from the tcm rows.
func isSourceIdentical(s *core.Schema, f *core.MappedFact) bool {
	for _, cf := range f.CFs {
		if cf != core.SourceData {
			return false
		}
	}
	src, ok := s.Facts().Lookup(f.Coords, f.Time)
	if !ok {
		return false
	}
	for i, v := range f.Values {
		if v != src[i] {
			return false
		}
	}
	return true
}

// FactRows returns the multiversion fact rows for one mode,
// reconstructing implicit rows under the Delta policy: a source row is
// implied in a version mode when its coordinates are leaf member
// versions of that structure version and no stored delta overrides
// them.
func (dw *MultiVersionDW) FactRows(mode string) (*rolap.Relation, error) {
	stored, err := dw.DB.Query("SELECT * FROM mvfact WHERE tmp = '" + mode + "'")
	if err != nil {
		return nil, err
	}
	if dw.Policy == Full || mode == "tcm" {
		return stored, nil
	}
	sv := dw.schema.VersionByID(mode)
	if sv == nil {
		return nil, fmt.Errorf("warehouse: unknown mode %q", mode)
	}
	// Index the stored delta rows by coordinates+time.
	overridden := make(map[string]bool, len(stored.Rows))
	nd := len(dw.schema.Dimensions())
	for _, row := range stored.Rows {
		overridden[deltaKey(row[1:1+nd], row[1+nd])] = true
	}
	// A source fact is implicit when each coordinate is a leaf of the
	// structure version.
	leafSets := make([]map[core.MVID]bool, nd)
	for i, d := range dw.schema.Dimensions() {
		set := make(map[core.MVID]bool)
		rd := sv.Dimension(d.ID)
		if rd != nil {
			for _, mv := range rd.LeavesAt(sv.Valid.Start) {
				set[mv.ID] = true
			}
		}
		leafSets[i] = set
	}
	out := &rolap.Relation{Cols: stored.Cols, Rows: append([][]any{}, stored.Rows...)}
	for _, f := range dw.schema.Facts().Facts() {
		inVersion := true
		for i, id := range f.Coords {
			if !leafSets[i][id] {
				inVersion = false
				break
			}
		}
		if !inVersion {
			continue
		}
		coords := make([]any, nd)
		for i, id := range f.Coords {
			coords[i] = string(id)
		}
		if overridden[deltaKey(coords, f.Time)] {
			continue
		}
		row := make([]any, 0, len(stored.Cols))
		row = append(row, mode)
		row = append(row, coords...)
		row = append(row, f.Time)
		for _, v := range f.Values {
			row = append(row, v)
		}
		for range f.Values {
			row = append(row, core.SourceData.PrototypeCode())
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func deltaKey(coords []any, t any) string {
	key := ""
	for _, c := range coords {
		key += fmt.Sprint(c) + "\x1f"
	}
	var ti int64
	switch x := t.(type) {
	case temporal.Instant:
		ti = int64(x)
	case int64:
		ti = x
	}
	return key + fmt.Sprint(ti)
}

// Query runs SQL against the warehouse tables. Under the Delta policy
// queries against mvfact see only the stored rows; use FactRows for the
// reconstructed view.
func (dw *MultiVersionDW) Query(sql string) (*rolap.Relation, error) { return dw.DB.Query(sql) }
