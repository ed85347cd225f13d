// Command paper-tables regenerates every table and figure of Body,
// Miquel, Bédard & Tchounikine, "Handling Evolutions in
// Multidimensional Structures" (ICDE 2003), and checks the computed
// values against the numbers printed in the paper. It exits non-zero if
// any reproduced value differs, so it doubles as the repository's
// end-to-end reproduction gate. EXPERIMENTS.md records its output.
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/metadata"
	"mvolap/internal/quality"
	"mvolap/internal/scd"
	"mvolap/internal/temporal"
	"mvolap/internal/tql"
	"mvolap/internal/warehouse"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paper-tables:", err)
		os.Exit(1)
	}
}

type section struct {
	id    string
	title string
	run   func(io.Writer, *core.Schema) error
}

func run(w io.Writer) error {
	s, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		return err
	}
	sections := []section{
		{"Table 1-2,7", "The Organization dimension in 2001, 2002 and 2003", orgSnapshots},
		{"Table 3", "Snapshot of data for years 2001-2003", table3},
		{"Table 4", "Q1 in consistent time", tableQ1(tcmMode, map[string]float64{
			"2001/Sales": 150, "2001/R&D": 100, "2002/Sales": 100, "2002/R&D": 150})},
		{"Table 5", "Q1 mapped on the 2001 organization", tableQ1(versionAt(2001), map[string]float64{
			"2001/Sales": 150, "2001/R&D": 100, "2002/Sales": 200, "2002/R&D": 50})},
		{"Table 6", "Q1 mapped on the 2002 organization", tableQ1(versionAt(2002), map[string]float64{
			"2001/Sales": 100, "2001/R&D": 150, "2002/Sales": 100, "2002/R&D": 150})},
		{"Table 8", "Q2 in consistent time", tableQ2(tcmMode, map[string]float64{
			"2002/Dpt.Jones": 100, "2002/Dpt.Smith": 100, "2002/Dpt.Brian": 50,
			"2003/Dpt.Bill": 150, "2003/Dpt.Paul": 50, "2003/Dpt.Smith": 110, "2003/Dpt.Brian": 40})},
		{"Table 9", "Q2 mapped on the 2002 organization", tableQ2(versionAt(2002), map[string]float64{
			"2002/Dpt.Jones": 100, "2002/Dpt.Smith": 100, "2002/Dpt.Brian": 50,
			"2003/Dpt.Jones": 200, "2003/Dpt.Smith": 110, "2003/Dpt.Brian": 40})},
		{"Table 10", "Q2 mapped on the 2003 organization", tableQ2(versionAt(2003), map[string]float64{
			"2002/Dpt.Bill": 40, "2002/Dpt.Paul": 60, "2002/Dpt.Smith": 100, "2002/Dpt.Brian": 50,
			"2003/Dpt.Bill": 150, "2003/Dpt.Paul": 50, "2003/Dpt.Smith": 110, "2003/Dpt.Brian": 40})},
		{"Example 7", "Structure versions inferred from the schema", structureVersions},
		{"Table 11", "Simple and complex operations as basic operators", table11},
		{"Table 12", "Mapping relations metadata (two-measure prototype)", table12},
		{"Figure 2", "The Org dimension as a temporal graph", figure2},
		{"§5.2", "Global quality factor Q per temporal mode", qualitySection},
		{"§5.1", "MultiVersion DW redundancy: full duplication vs delta", redundancySection},
		{"§1.2/§2.2", "SCD baselines on the case study (what the paper improves on)", scdSection},
		{"§6", "Conclusion's future work: composed structure versions", composeSection},
	}
	for _, sec := range sections {
		fmt.Fprintf(w, "==== %s — %s ====\n", sec.id, sec.title)
		if err := sec.run(w, s); err != nil {
			return fmt.Errorf("%s: %w", sec.id, err)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "all reproduced values match the paper")
	return nil
}

// modeSelector picks a temporal mode of presentation once the schema
// (and its inferred structure versions) is available.
type modeSelector func(*core.Schema) core.Mode

func tcmMode(*core.Schema) core.Mode { return core.TCM() }

func versionAt(year int) modeSelector {
	return func(s *core.Schema) core.Mode {
		return core.InVersion(s.VersionAt(temporal.Year(year)))
	}
}

// tableQ1 builds the Q1 check for a mode selector.
func tableQ1(sel modeSelector, want map[string]float64) func(io.Writer, *core.Schema) error {
	return func(w io.Writer, s *core.Schema) error {
		return checkQuery(w, s, core.Query{
			GroupBy: []core.GroupBy{{Dim: casestudy.OrgDim, Level: "Division"}},
			Grain:   core.GrainYear,
			Range:   temporal.Between(temporal.Year(2001), temporal.EndOfYear(2002)),
		}, sel, want)
	}
}

func tableQ2(sel modeSelector, want map[string]float64) func(io.Writer, *core.Schema) error {
	return func(w io.Writer, s *core.Schema) error {
		return checkQuery(w, s, core.Query{
			GroupBy: []core.GroupBy{{Dim: casestudy.OrgDim, Level: "Department"}},
			Grain:   core.GrainYear,
			Range:   temporal.Between(temporal.Year(2002), temporal.EndOfYear(2003)),
		}, sel, want)
	}
}

// checkQuery resolves the mode selector against the schema, runs the
// query, prints the rows and compares with the paper's numbers.
func checkQuery(w io.Writer, s *core.Schema, q core.Query, sel modeSelector, want map[string]float64) error {
	q.Mode = sel(s)
	res, err := s.Execute(q)
	if err != nil {
		return err
	}
	got := map[string]float64{}
	for _, r := range res.Rows() {
		key := r.TimeKey + "/" + r.Groups[0]
		got[key] = r.Values[0]
		fmt.Fprintf(w, "  %-6s %-10s %8s (%s)\n", r.TimeKey, r.Groups[0], core.FormatValue(r.Values[0]), r.CFs[0])
	}
	for key, wv := range want {
		gv, ok := got[key]
		if !ok || math.Abs(gv-wv) > 1e-9 {
			return fmt.Errorf("cell %s = %v, paper says %v", key, gv, wv)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, paper shows %d", len(got), len(want))
	}
	fmt.Fprintf(w, "  -> matches the paper (%d cells), mode=%s, Q=%.3f\n",
		len(want), q.Mode, quality.Of(res, quality.DefaultWeights()))
	return nil
}

func orgSnapshots(w io.Writer, s *core.Schema) error {
	d := s.Dimension(casestudy.OrgDim)
	for _, yr := range []int{2001, 2002, 2003} {
		at := temporal.Year(yr)
		fmt.Fprintf(w, "  %d:\n", yr)
		for _, mv := range d.LeavesAt(at) {
			ps := d.ParentsAt(mv.ID, at)
			parent := "-"
			if len(ps) > 0 {
				parent = ps[0].DisplayName()
			}
			fmt.Fprintf(w, "    %-10s %s\n", parent, mv.DisplayName())
		}
	}
	// Check the three snapshots.
	check := func(yr int, wantPairs map[string]string, n int) error {
		at := temporal.Year(yr)
		leaves := d.LeavesAt(at)
		if len(leaves) != n {
			return fmt.Errorf("%d has %d departments, paper shows %d", yr, len(leaves), n)
		}
		for _, mv := range leaves {
			ps := d.ParentsAt(mv.ID, at)
			if len(ps) != 1 || ps[0].DisplayName() != wantPairs[mv.DisplayName()] {
				return fmt.Errorf("%d: %s under %v, paper says %s", yr, mv.DisplayName(), ps, wantPairs[mv.DisplayName()])
			}
		}
		return nil
	}
	if err := check(2001, map[string]string{"Dpt.Jones": "Sales", "Dpt.Smith": "Sales", "Dpt.Brian": "R&D"}, 3); err != nil {
		return err
	}
	if err := check(2002, map[string]string{"Dpt.Jones": "Sales", "Dpt.Smith": "R&D", "Dpt.Brian": "R&D"}, 3); err != nil {
		return err
	}
	if err := check(2003, map[string]string{"Dpt.Bill": "Sales", "Dpt.Paul": "Sales", "Dpt.Smith": "R&D", "Dpt.Brian": "R&D"}, 4); err != nil {
		return err
	}
	fmt.Fprintln(w, "  -> matches Tables 1, 2 and 7")
	return nil
}

func table3(w io.Writer, s *core.Schema) error {
	rows := casestudy.Table3()
	total := 0.0
	for _, r := range rows {
		fmt.Fprintf(w, "  %d  %-6s %-10s %6g\n", r.Time.YearOf(), r.Division, r.Dept, r.Amount)
		total += r.Amount
	}
	if len(rows) != 10 || total != 850 {
		return fmt.Errorf("snapshot has %d rows totalling %v, paper shows 10 rows totalling 850", len(rows), total)
	}
	if s.Facts().Len() != 10 {
		return fmt.Errorf("fact table has %d rows", s.Facts().Len())
	}
	fmt.Fprintln(w, "  -> matches Table 3")
	return nil
}

func structureVersions(w io.Writer, s *core.Schema) error {
	svs := s.StructureVersions()
	for _, v := range svs {
		fmt.Fprintf(w, "  %s\n", v)
	}
	if len(svs) != 3 {
		return fmt.Errorf("%d structure versions, expected 3", len(svs))
	}
	fmt.Fprintln(w, "  -> the Smith reclassification and the Jones split partition history into 3 versions")
	return nil
}

func table11(w io.Writer, s *core.Schema) error {
	entries := []struct {
		title string
		ops   []evolution.Op
		n     int
	}{
		{"Creation of V as child of P1", evolution.CreateMember("Org",
			evolution.NewMember{ID: "idV", Name: "V", Parents: []core.MVID{"idP1"}}, temporal.Year(2002)), 1},
		{"Change from V to V' (equivalence)", evolution.Transform("Org", "idV",
			evolution.NewMember{ID: "idV'", Name: "V'", Parents: []core.MVID{"idP1"}}, temporal.Year(2002), 1), 3},
		{"Merge of V1 and V2 into V12", evolution.Merge("Org",
			[]evolution.MergeSource{
				{ID: "idV1", Forward: core.UniformMapping(1, core.Identity, core.ExactMapping),
					Backward: core.UniformMapping(1, core.Linear{K: 0.5}, core.ApproxMapping)},
				{ID: "idV2", Forward: core.UniformMapping(1, core.Identity, core.ExactMapping),
					Backward: core.UniformMapping(1, core.Unknown{}, core.UnknownMapping)},
			},
			evolution.NewMember{ID: "idV12", Name: "V12", Parents: []core.MVID{"idP1"}}, temporal.Year(2002)), 5},
		{"Increase V in V+ (factor 2)", evolution.Increase("Org", "idV",
			evolution.NewMember{ID: "idV+", Name: "V+", Parents: []core.MVID{"idP1"}}, temporal.Year(2002), 2, 1), 3},
		{"Partial annexation of 10% of V1 to V2", evolution.PartialAnnexation("Org", "idV1", "idV2",
			evolution.NewMember{ID: "idV1-", Name: "V1-", Parents: []core.MVID{"idP1"}},
			evolution.NewMember{ID: "idV2+", Name: "V2+", Parents: []core.MVID{"idP1"}},
			temporal.Year(2002), 0.1, 0.2, 1), 7},
	}
	for _, e := range entries {
		fmt.Fprintf(w, "  %s:\n", e.title)
		for _, line := range strings.Split(evolution.Describe(e.ops), "\n") {
			fmt.Fprintf(w, "    %s\n", line)
		}
		if len(e.ops) != e.n {
			return fmt.Errorf("%s compiles to %d operators, paper shows %d", e.title, len(e.ops), e.n)
		}
	}
	fmt.Fprintln(w, "  -> operator counts match Table 11")
	return nil
}

func table12(w io.Writer, _ *core.Schema) error {
	// The prototype's two-measure variant: Turnover 60/40, Profit 80/20.
	s := core.NewSchema("prototype",
		core.Measure{Name: "m1", Agg: core.Sum}, core.Measure{Name: "m2", Agg: core.Sum})
	d := core.NewDimension("Org", "Org")
	for _, mv := range []*core.MemberVersion{
		{ID: "jones", Name: "Dpt.Jones", Level: "Department",
			Valid: temporal.Between(temporal.Year(2001), temporal.EndOfYear(2002))},
		{ID: "paul", Name: "Dpt.Paul", Level: "Department", Valid: temporal.Since(temporal.Year(2003))},
		{ID: "bill", Name: "Dpt.Bill", Level: "Department", Valid: temporal.Since(temporal.Year(2003))},
	} {
		if err := d.AddVersion(mv); err != nil {
			return err
		}
	}
	if err := s.AddDimension(d); err != nil {
		return err
	}
	for _, m := range []core.MappingRelationship{
		{From: "jones", To: "paul",
			Forward: []core.MeasureMapping{
				{Fn: core.Linear{K: 0.6}, CF: core.ApproxMapping},
				{Fn: core.Linear{K: 0.8}, CF: core.ApproxMapping}},
			Backward: core.UniformMapping(2, core.Identity, core.ExactMapping)},
		{From: "jones", To: "bill",
			Forward: []core.MeasureMapping{
				{Fn: core.Linear{K: 0.4}, CF: core.ApproxMapping},
				{Fn: core.Linear{K: 0.2}, CF: core.ApproxMapping}},
			Backward: core.UniformMapping(2, core.Identity, core.ExactMapping)},
	} {
		if err := s.AddMapping(m); err != nil {
			return err
		}
	}
	rows := metadata.MappingTable(s)
	fmt.Fprint(w, indent(metadata.RenderMappingTable(rows), "  "))
	for _, r := range rows {
		if r.Conf != 1 || r.ConfInv != 2 {
			return fmt.Errorf("confidence codes %d/%d, paper shows 1/2", r.Conf, r.ConfInv)
		}
	}
	want := map[string][2]string{
		"Dpt.Paul": {"0.6", "0.8"},
		"Dpt.Bill": {"0.4", "0.2"},
	}
	for _, r := range rows {
		exp := want[r.To]
		if r.K[0] != exp[0] || r.K[1] != exp[1] || r.KInv[0] != "1" || r.KInv[1] != "1" {
			return fmt.Errorf("k factors for %s = %v/%v, paper shows %v", r.To, r.K, r.KInv, exp)
		}
	}
	fmt.Fprintln(w, "  -> matches Table 12")
	return nil
}

func figure2(w io.Writer, s *core.Schema) error {
	d := s.Dimension(casestudy.OrgDim)
	for _, mv := range d.Versions() {
		fmt.Fprintf(w, "  %-14s %s\n", mv.DisplayName(), mv.Valid)
	}
	for _, r := range d.Relationships() {
		child := d.Version(r.From).DisplayName()
		parent := d.Version(r.To).DisplayName()
		fmt.Fprintf(w, "  %-14s -> %-8s %s\n", child, parent, r.Valid)
	}
	// The figure's valid times for the split members.
	checks := map[core.MVID]temporal.Interval{
		casestudy.Sales: temporal.Since(temporal.Year(2001)),
		casestudy.Jones: temporal.Between(temporal.Year(2001), temporal.EndOfYear(2002)),
		casestudy.Bill:  temporal.Since(temporal.Year(2003)),
		casestudy.Paul:  temporal.Since(temporal.Year(2003)),
	}
	for id, want := range checks {
		if got := d.Version(id).Valid; !got.Equal(want) {
			return fmt.Errorf("%s valid %v, figure shows %v", id, got, want)
		}
	}
	fmt.Fprintln(w, "  -> member and relationship valid times match Figure 2")
	return nil
}

func qualitySection(w io.Writer, s *core.Schema) error {
	out, err := tql.Run(s, "QUALITY SELECT * BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003")
	if err != nil {
		return err
	}
	ranked := out.Ranking
	for _, r := range ranked {
		fmt.Fprintf(w, "  %-4s Q=%.3f\n", r.Mode, r.Quality)
	}
	if ranked[0].Mode.Kind != core.TCMKind || ranked[0].Quality != 1 {
		return fmt.Errorf("tcm must rank first with Q=1")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Quality >= 1 {
			return fmt.Errorf("mapped mode %s has Q=%v; mapping must cost quality", ranked[i].Mode, ranked[i].Quality)
		}
	}
	fmt.Fprintln(w, "  -> Q = Σ pds(cf) / (Ni·Nj·10), weights sd=10 em=8 am=5 uk=0 (§5.2)")
	return nil
}

func redundancySection(w io.Writer, s *core.Schema) error {
	full, err := warehouse.BuildMultiVersion(s, warehouse.Full)
	if err != nil {
		return err
	}
	delta, err := warehouse.BuildMultiVersion(s, warehouse.Delta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  source rows: %d\n", full.Stats.SourceRows)
	fmt.Fprintf(w, "  full duplication:  %d stored rows (redundancy %.2fx)\n",
		full.Stats.StoredRows, full.Stats.Redundancy())
	fmt.Fprintf(w, "  delta storage:     %d stored rows (saving %.0f%%)\n",
		delta.Stats.StoredRows, 100*delta.Stats.Saving())
	if full.Stats.Redundancy() <= 1 {
		return fmt.Errorf("full duplication must replicate values")
	}
	if delta.Stats.StoredRows >= full.Stats.StoredRows {
		return fmt.Errorf("delta must store fewer rows")
	}
	fmt.Fprintln(w, "  -> the §5.1 'high level of useless redundancies', and the improvement the paper sketches")
	return nil
}

func scdSection(w io.Writer, _ *core.Schema) error {
	var facts []scd.Fact
	for _, r := range casestudy.Table3() {
		name := s2name(r.Dept)
		facts = append(facts, scd.Fact{Key: name, Time: r.Time, Value: r.Amount})
	}
	play := func(d scd.Dimension) {
		d.Set("Dpt.Jones", "Sales", temporal.Year(2001))
		d.Set("Dpt.Smith", "Sales", temporal.Year(2001))
		d.Set("Dpt.Brian", "R&D", temporal.Year(2001))
		d.Set("Dpt.Smith", "R&D", temporal.Year(2002))
		d.Delete("Dpt.Jones", temporal.Year(2003))
		d.Set("Dpt.Bill", "Sales", temporal.Year(2003))
		d.Set("Dpt.Paul", "Sales", temporal.Year(2003))
	}
	t1, t2, t3 := scd.NewType1(), scd.NewType2(), scd.NewType3()
	play(t1)
	play(t2)
	play(t3)
	r1 := scd.Totals(t1, facts, scd.Current)
	r2c := scd.Totals(t2, facts, scd.Current)
	r2t := scd.Totals(t2, facts, scd.AtTime)
	r3 := scd.Totals(t3, facts, scd.AtTime)
	fmt.Fprintf(w, "  type 1 (overwrite / updating model): %d facts lost, history rewritten\n", r1.LostFacts)
	fmt.Fprintf(w, "  type 2 (row versions), at-time: %d facts lost — but no cross-version comparison:\n", r2t.LostFacts)
	fmt.Fprintf(w, "  type 2, current view: %d facts lost (no links across transitions)\n", r2c.LostFacts)
	fmt.Fprintf(w, "  type 3 (prev column), at-time: %d facts lost (splits inexpressible)\n", r3.LostFacts)
	fmt.Fprintln(w, "  multiversion model: 0 facts lost in every mode, with confidence factors")
	if r1.LostFacts == 0 || r2c.LostFacts == 0 || r3.LostFacts == 0 || r2t.LostFacts != 0 {
		return fmt.Errorf("baseline loss profile unexpected: t1=%d t2c=%d t2t=%d t3=%d",
			r1.LostFacts, r2c.LostFacts, r2t.LostFacts, r3.LostFacts)
	}
	return nil
}

// composeSection demonstrates the improvement the paper's conclusion
// calls for: building a presentation structure by selecting dimensions
// from different versions. On the single-dimension case study the
// composite picks the 2001 Org structure but presents it as valid
// today; its answers equal the V1 presentation.
func composeSection(w io.Writer, s *core.Schema) error {
	composed, err := s.ComposeVersion("X1", temporal.Since(temporal.Year(2003)),
		map[core.DimID]string{casestudy.OrgDim: "V1"})
	if err != nil {
		return err
	}
	q := core.Query{
		GroupBy: []core.GroupBy{{Dim: casestudy.OrgDim, Level: "Department"}},
		Grain:   core.GrainYear,
		Range:   temporal.Between(temporal.Year(2003), temporal.EndOfYear(2003)),
	}
	q.Mode = core.InVersion(composed)
	res, err := s.Execute(q)
	if err != nil {
		return err
	}
	for _, r := range res.Rows() {
		fmt.Fprintf(w, "  %-6s %-10s %8s (%s)\n", r.TimeKey, r.Groups[0], core.FormatValue(r.Values[0]), r.CFs[0])
	}
	q.Mode = core.InVersion(s.VersionAt(temporal.Year(2001)))
	ref, err := s.Execute(q)
	if err != nil {
		return err
	}
	if res.Len() != ref.Len() {
		return fmt.Errorf("composed presentation has %d rows, V1 has %d", res.Len(), ref.Len())
	}
	for i := range res.Len() {
		if res.Values(i)[0] != ref.Values(i)[0] || res.CFs(i)[0] != ref.CFs(i)[0] {
			return fmt.Errorf("composed row %d differs from the V1 presentation", i)
		}
	}
	fmt.Fprintln(w, "  -> ComposeVersion reproduces the picked structure; with several dimensions it mixes versions (see internal/core compose tests)")
	return nil
}

// s2name strips the fixture's "_id" suffix to recover display names.
func s2name(id core.MVID) string { return strings.TrimSuffix(string(id), "_id") }

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
