package tql

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/quality"
	"mvolap/internal/temporal"
)

func caseSchema(t testing.TB) *core.Schema {
	t.Helper()
	s, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseQ1(t *testing.T) {
	st, err := Parse("SELECT Amount BY Org.Division, TIME.YEAR WHERE TIME BETWEEN 2001 AND 2002 MODE tcm")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindSelect || len(st.Measures) != 1 || st.Measures[0] != "Amount" {
		t.Fatalf("statement = %+v", st)
	}
	if len(st.Axes) != 2 || st.Axes[0].Dim != "Org" || st.Axes[0].Level != "Division" || !st.Axes[1].Time {
		t.Fatalf("axes = %+v", st.Axes)
	}
	if !st.HasRange || !st.Range.Equal(temporal.Between(temporal.Year(2001), temporal.EndOfYear(2002))) {
		t.Errorf("range = %v", st.Range)
	}
	if st.Mode != (ModeClause{}) {
		t.Errorf("mode = %+v", st.Mode)
	}
}

// TestParseModeClause: SELECT, QUALITY and EXPLAIN read their MODE
// clause alike, into the statement's one mode field, and no clause is
// tcm.
func TestParseModeClause(t *testing.T) {
	at := ModeClause{At: temporal.YM(2003, 6), ByInstant: true}
	for _, head := range []string{"SELECT Amount BY Org.Division", "QUALITY SELECT * BY TIME.YEAR", "EXPLAIN Dpt.Bill_id AT 2003"} {
		for clause, want := range map[string]ModeClause{
			"":                         {},
			" MODE tcm":                {},
			" MODE V2":                 {Version: "V2"},
			" MODE VERSION AT 06/2003": at,
		} {
			st, err := Parse(head + clause)
			if err != nil {
				t.Fatalf("Parse(%q): %v", head+clause, err)
			}
			if st.Mode != want {
				t.Errorf("Parse(%q).Mode = %+v, want %+v", head+clause, st.Mode, want)
			}
		}
		// An empty ID would read as tcm.
		if _, err := Parse(head + " MODE ''"); err == nil {
			t.Errorf("Parse(%q) must fail", head+" MODE ''")
		}
	}
}

func TestParseVariants(t *testing.T) {
	cases := []string{
		"SELECT * BY Org.Department, TIME.MONTH",
		"SELECT Amount BY Org.Division, TIME.QUARTER MODE V2",
		"SELECT Amount BY Org.Division, TIME.ALL MODE VERSION AT 2002",
		"SELECT Amount BY Org.Division, TIME.YEAR WHERE TIME BETWEEN 06/2001 AND 12/2002",
		"SELECT Amount, Amount BY Org.Division, TIME.YEAR",
		"MODES",
		"QUALITY SELECT Amount BY Org.Department, TIME.YEAR",
	}
	for _, in := range cases {
		if _, err := Parse(in); err != nil {
			t.Errorf("Parse(%q): %v", in, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"DROP TABLE x",
		"SELECT",
		"SELECT BY Org.Division",
		"SELECT Amount",
		"SELECT Amount BY",
		"SELECT Amount BY Org",
		"SELECT Amount BY Org.",
		"SELECT Amount BY TIME.DECADE",
		"SELECT Amount BY TIME.YEAR, TIME.MONTH",
		"SELECT Amount BY Org.Division WHERE",
		"SELECT Amount BY Org.Division WHERE TIME",
		"SELECT Amount BY Org.Division WHERE TIME BETWEEN",
		"SELECT Amount BY Org.Division WHERE TIME BETWEEN 2001",
		"SELECT Amount BY Org.Division WHERE TIME BETWEEN 2001 AND",
		"SELECT Amount BY Org.Division WHERE TIME BETWEEN 2002 AND 2001",
		"SELECT Amount BY Org.Division WHERE TIME BETWEEN x AND y",
		"SELECT Amount BY Org.Division MODE",
		"SELECT Amount BY Org.Division MODE VERSION",
		"SELECT Amount BY Org.Division MODE VERSION AT",
		"SELECT Amount BY Org.Division trailing",
		"MODES trailing",
		"SELECT Amount BY Org.Division WHERE TIME BETWEEN 'unterminated",
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) must fail", in)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	s := caseSchema(t)
	cases := []string{
		"SELECT Amount BY Nope.Division, TIME.YEAR",
		"SELECT Amount BY Org.Division, TIME.YEAR MODE V9",
		"SELECT Amount BY Org.Division, TIME.YEAR MODE VERSION AT 1980",
	}
	for _, in := range cases {
		st, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if _, err := st.Plan(s); err == nil {
			t.Errorf("Plan(%q) must fail", in)
		}
	}
	// Unknown measures fail at execution.
	if _, err := Run(s, "SELECT Nope BY Org.Division, TIME.YEAR"); err == nil {
		t.Error("unknown measure must fail")
	}
	// So do mistyped levels: an error, not an empty answer.
	if _, err := Run(s, "SELECT * BY Org.Nonexistent, TIME.YEAR"); err == nil ||
		!strings.Contains(err.Error(), `unknown level "Nonexistent" in dimension "Org"`) {
		t.Errorf("unknown level: err = %v", err)
	}
	st := &Statement{Kind: KindModes}
	if _, err := st.Plan(s); err == nil {
		t.Error("MODES has no plan")
	}
}

// TestRunQ1AllModes reproduces Tables 4, 5 and 6 through the query
// language.
func TestRunQ1AllModes(t *testing.T) {
	s := caseSchema(t)
	get := func(stmt string) map[string]float64 {
		t.Helper()
		out, err := Run(s, stmt)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]float64{}
		for _, r := range out.Result.Rows() {
			m[r.TimeKey+"/"+r.Groups[0]] = r.Values[0]
		}
		return m
	}
	q1 := "SELECT Amount BY Org.Division, TIME.YEAR WHERE TIME BETWEEN 2001 AND 2002 MODE "
	tcm := get(q1 + "tcm")
	if tcm["2001/Sales"] != 150 || tcm["2002/R&D"] != 150 {
		t.Errorf("Table 4 via TQL = %v", tcm)
	}
	v1 := get(q1 + "VERSION AT 2001")
	if v1["2002/Sales"] != 200 || v1["2002/R&D"] != 50 {
		t.Errorf("Table 5 via TQL = %v", v1)
	}
	v2 := get(q1 + "V2")
	if v2["2001/Sales"] != 100 || v2["2001/R&D"] != 150 {
		t.Errorf("Table 6 via TQL = %v", v2)
	}
}

func TestRunDefaultsToTCM(t *testing.T) {
	s := caseSchema(t)
	out, err := Run(s, "SELECT Amount BY Org.Division, TIME.YEAR")
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Mode.Kind != core.TCMKind {
		t.Errorf("default mode = %v", out.Result.Mode)
	}
	if out.Quality != 1 {
		t.Errorf("tcm quality = %v", out.Quality)
	}
}

func TestRunModes(t *testing.T) {
	s := caseSchema(t)
	out, err := Run(s, "MODES")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Modes) != 4 {
		t.Fatalf("modes = %v", out.Modes)
	}
	text := Render(out)
	if !strings.Contains(text, "tcm") || !strings.Contains(text, "V3 [01/2003 ; Now]") {
		t.Errorf("rendered modes:\n%s", text)
	}
}

func TestRunQuality(t *testing.T) {
	s := caseSchema(t)
	out, err := Run(s, "QUALITY SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Ranking) != 4 {
		t.Fatalf("ranking = %v", out.Ranking)
	}
	if out.Ranking[0].Mode.Kind != core.TCMKind || out.Quality != 1 {
		t.Errorf("best mode = %v Q=%v", out.Ranking[0].Mode, out.Quality)
	}
	text := Render(out)
	if !strings.Contains(text, "tcm") || !strings.Contains(text, "Q=1.000") {
		t.Errorf("rendered ranking:\n%s", text)
	}
	// QUALITY with a broken plan propagates the error.
	if _, err := Run(s, "QUALITY SELECT Amount BY Nope.X, TIME.YEAR"); err == nil {
		t.Error("broken QUALITY plan must fail")
	}
}

// TestRunQualityCancelled: a QUALITY ranking checks the request's
// context before each mode, so a cancelled request gets the
// cancellation, not a ranking — also when every mode would hit a warm
// cache.
func TestRunQualityCancelled(t *testing.T) {
	const stmt = "QUALITY SELECT Amount BY Org.Department, TIME.YEAR"
	s := caseSchema(t)
	cache := NewResultCache(16)
	if _, err := RunCachedContext(context.Background(), s, stmt, quality.DefaultWeights(), cache); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []*ResultCache{nil, cache} {
		out, err := RunCachedContext(ctx, s, stmt, quality.DefaultWeights(), c)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cache %v: err = %v (output %+v), want context.Canceled", c != nil, err, out)
		}
	}
}

// TestRunExplainCancelled: a version-mode EXPLAIN walks the instant's
// shards under the request's context, so a cancelled request gets the
// cancellation, not a lineage.
func TestRunExplainCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := RunCachedContext(ctx, caseSchema(t), "EXPLAIN Dpt.Jones_id AT 2003 MODE V2", quality.DefaultWeights(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (output %+v), want context.Canceled", err, out)
	}
}

// TestRankModes: a QUALITY ranking covers every mode, best first, tcm
// on top for a query whose tcm answer is all source data, and fails
// with its weights or its query.
func TestRankModes(t *testing.T) {
	const stmt = "QUALITY SELECT * BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003"
	s := caseSchema(t)
	out, err := Run(s, stmt)
	if err != nil {
		t.Fatal(err)
	}
	ranked := out.Ranking
	if len(ranked) != 4 {
		t.Fatalf("ranked %d modes", len(ranked))
	}
	if ranked[0].Mode.Kind != core.TCMKind {
		t.Errorf("best mode = %v, want tcm", ranked[0].Mode)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Quality < ranked[i].Quality {
			t.Error("ranking must be descending")
		}
	}
	// Invalid weights propagate.
	if _, err := RunCachedContext(context.Background(), s, stmt, quality.Weights{99, 0, 0, 0}, nil); err == nil {
		t.Error("invalid weights must fail")
	}
	// Invalid query propagates.
	if _, err := Run(s, "QUALITY SELECT zz BY Org.Department, TIME.YEAR"); err == nil {
		t.Error("invalid query must fail")
	}
}

func TestRenderResult(t *testing.T) {
	s := caseSchema(t)
	out, err := Run(s, "SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003 MODE V2")
	if err != nil {
		t.Fatal(err)
	}
	text := Render(out)
	if !strings.Contains(text, "200 (em)") {
		t.Errorf("rendered result must show the merged em cell:\n%s", text)
	}
	if !strings.Contains(text, "mode=V2") {
		t.Errorf("rendered result must echo the mode:\n%s", text)
	}
}

func TestExplainStatement(t *testing.T) {
	s := caseSchema(t)
	out, err := Run(s, "EXPLAIN Dpt.Jones_id AT 2003 MODE V2")
	if err != nil {
		t.Fatal(err)
	}
	text := Render(out)
	if !strings.Contains(text, "Dpt.Bill") || !strings.Contains(text, "Dpt.Paul") {
		t.Errorf("lineage must name both merged sources:\n%s", text)
	}
	if !strings.Contains(text, "[em]") {
		t.Errorf("lineage must carry the em confidence:\n%s", text)
	}
	// tcm lineage of a plain cell.
	out, err = Run(s, "EXPLAIN Dpt.Smith_id AT 2002")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Lineage, "[sd]") {
		t.Errorf("tcm lineage:\n%s", out.Lineage)
	}
	// A cell nothing feeds.
	out, err = Run(s, "EXPLAIN Dpt.Smith_id AT 2010")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Lineage, "no source data") {
		t.Errorf("empty lineage:\n%s", out.Lineage)
	}
}

func TestExplainParseErrors(t *testing.T) {
	cases := []string{
		"EXPLAIN",
		"EXPLAIN ,",
		"EXPLAIN x",
		"EXPLAIN x AT",
		"EXPLAIN x AT junk",
		"EXPLAIN x AT 2003 MODE",
		"EXPLAIN x AT 2003 MODE VERSION",
		"EXPLAIN x AT 2003 trailing trailing",
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) must fail", in)
		}
	}
	s := caseSchema(t)
	if _, err := Run(s, "EXPLAIN Dpt.Jones_id AT 2003 MODE V9"); err == nil {
		t.Error("unknown version must fail at run")
	}
	// Wrong coordinate arity fails in metadata.Explain.
	if _, err := Run(s, "EXPLAIN a, b AT 2003 MODE V2"); err == nil {
		t.Error("coordinate arity must fail")
	}
}

func TestFilterConditions(t *testing.T) {
	s := caseSchema(t)
	out, err := Run(s, "SELECT Amount BY Org.Department, TIME.YEAR "+
		"WHERE TIME BETWEEN 2001 AND 2003 AND Org IN Sales MODE tcm")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Result.Rows() {
		if r.Groups[0] == "Dpt.Brian" {
			t.Errorf("Brian must be filtered out: %+v", r)
		}
	}
	// Multiple names, quoted and dotted, and filter-only WHERE.
	out, err = Run(s, "SELECT Amount BY Org.Department, TIME.YEAR "+
		"WHERE Org IN 'Dpt.Smith', Dpt.Brian")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range out.Result.Rows() {
		seen[r.Groups[0]] = true
	}
	if !seen["Dpt.Smith"] || !seen["Dpt.Brian"] || len(seen) != 2 {
		t.Errorf("diced members = %v", seen)
	}
}

func TestFilterParseErrors(t *testing.T) {
	cases := []string{
		"SELECT Amount BY Org.Department WHERE Org",
		"SELECT Amount BY Org.Department WHERE Org IN",
		"SELECT Amount BY Org.Department WHERE Org IN ,",
		"SELECT Amount BY Org.Department WHERE TIME BETWEEN 2001 AND 2002 AND",
		"SELECT Amount BY Org.Department WHERE TIME BETWEEN 2001 AND 2002 AND TIME BETWEEN 2001 AND 2002",
	}
	for _, in := range cases {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) must fail", in)
		}
	}
	s := caseSchema(t)
	if _, err := Run(s, "SELECT Amount BY Org.Department, TIME.YEAR WHERE Nope IN x"); err == nil {
		t.Error("unknown filter dimension must fail at plan")
	}
}
