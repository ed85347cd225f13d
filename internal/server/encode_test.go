package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/obs"
	"mvolap/internal/quality"
	"mvolap/internal/temporal"
	"mvolap/internal/tql"
)

// refResponse and refRow spell the wire form out for encoding/json: the
// reference the single row writer is compared against.
type refResponse struct {
	Measures []string      `json:"measures,omitempty"`
	Groups   []string      `json:"groups,omitempty"`
	Rows     []refRow      `json:"rows"`
	Mode     string        `json:"mode,omitempty"`
	Quality  float64       `json:"quality"`
	Dropped  int           `json:"dropped,omitempty"`
	Ranking  []refRank     `json:"ranking,omitempty"`
	Modes    []modeEntry   `json:"modes,omitempty"`
	Lineage  string        `json:"lineage,omitempty"`
	Trace    *obs.SpanNode `json:"trace,omitempty"`
}

type refRank struct {
	Mode    string  `json:"mode"`
	Quality float64 `json:"quality"`
}

type refRow struct {
	Time   string     `json:"time"`
	Groups []string   `json:"groups"`
	Values []*float64 `json:"values"` // null elements encode unknown (NaN)
	CFs    []string   `json:"cfs"`
	Colors []string   `json:"colors"`
}

// referenceJSON renders the output through encoding/json alone.
func referenceJSON(t *testing.T, out *tql.Output, trace *obs.SpanNode) []byte {
	t.Helper()
	resp := refResponse{Quality: out.Quality, Lineage: out.Lineage, Rows: []refRow{}, Trace: trace}
	for _, m := range out.Modes {
		e := modeEntry{Mode: m.String()}
		if m.Kind == core.VersionKind && m.Version != nil {
			e.Valid = m.Version.Valid.String()
		}
		resp.Modes = append(resp.Modes, e)
	}
	for _, rk := range out.Ranking {
		resp.Ranking = append(resp.Ranking, refRank{Mode: rk.Mode.String(), Quality: rk.Quality})
	}
	if res := out.Result; res != nil {
		resp.Measures = res.MeasureNames
		resp.Groups = res.GroupNames
		resp.Mode = res.Mode.String()
		resp.Dropped = res.Dropped
		for _, row := range res.Rows {
			rr := refRow{Time: row.TimeKey, Groups: row.Groups, Values: []*float64{}, CFs: []string{}, Colors: []string{}}
			if rr.Groups == nil {
				rr.Groups = []string{}
			}
			for i, v := range row.Values {
				if math.IsNaN(v) {
					rr.Values = append(rr.Values, nil)
				} else {
					vv := v
					rr.Values = append(rr.Values, &vv)
				}
				rr.CFs = append(rr.CFs, row.CFs[i].String())
				rr.Colors = append(rr.Colors, quality.CellColor(row.CFs[i]).String())
			}
			resp.Rows = append(resp.Rows, rr)
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatalf("reference encoding: %v", err)
	}
	return buf.Bytes()
}

// requireWireForm checks the one body writer, untraced and traced,
// against the reference.
func requireWireForm(t *testing.T, out *tql.Output) {
	t.Helper()
	if got, want := encodeQueryResponse(out, nil), referenceJSON(t, out, nil); string(got) != string(want) {
		t.Errorf("encoder diverges from encoding/json\n got: %q\nwant: %q", got, want)
	}
	trace := &obs.SpanNode{Name: "query", DurationMS: 1.5, Attrs: map[string]any{"rows": 3, "mode": "<V1> & \"x\""},
		Children: []*obs.SpanNode{{Name: "encode", DurationMS: 0.25, Attrs: map[string]any{"bytes": 812}}}}
	if got, want := encodeQueryResponse(out, func([]byte) *obs.SpanNode { return trace }), referenceJSON(t, out, trace); string(got) != string(want) {
		t.Errorf("traced body diverges from encoding/json\n got: %q\nwant: %q", got, want)
	}
}

func selectOutput(quality float64, res core.Result) *tql.Output {
	return &tql.Output{Result: &res, Quality: quality}
}

// integralEdges are the integral values at the edges of the encoder's
// integer path: zero of either sign, one, the last integers a float64
// holds exactly (2^53 − 1, 2^53) and the first it skips one of
// (2^53 + 2), the largest powers of ten on either side of encoding/json's
// switch to exponent form (1e20, 1e21), and an integral value past
// MaxInt64 (9.3e18).
var integralEdges = func() []float64 {
	const p53 = 1 << 53
	var out []float64
	for _, v := range []float64{0, 1, p53 - 1, p53, p53 + 2, 1e20, 1e21, 9.3e18} {
		out = append(out, v, -v)
	}
	return out
}()

// TestEncodeQueryResponseMatchesStdlib pins the hand-rolled encoder to
// encoding/json byte for byte across the shapes and edge cases the
// serving tier can produce.
func TestEncodeQueryResponseMatchesStdlib(t *testing.T) {
	sd, em, am, uk := core.SourceData, core.ExactMapping, core.ApproxMapping, core.UnknownMapping
	escaped := core.InVersion(&core.StructureVersion{ID: "version <at> 1999 & \"on\""})
	cases := []struct {
		name string
		out  *tql.Output
	}{
		{"empty", selectOutput(0, core.Result{Rows: []*core.Row{}})},
		{"nil rows", selectOutput(0, core.Result{})},
		{"quality only", selectOutput(0.6180339887498949, core.Result{Rows: []*core.Row{}})},
		{"dropped", selectOutput(1, core.Result{Rows: []*core.Row{}, Dropped: 42})},
		{"full", selectOutput(0.875, core.Result{
			MeasureNames: []string{"amount", "count"},
			GroupNames:   []string{"Org.Division", "TIME.YEAR"},
			Rows: []*core.Row{
				{
					TimeKey: "1999",
					Groups:  []string{"East", "1999"},
					Values:  []float64{12.5, math.NaN()},
					CFs:     []core.Confidence{em, uk},
				},
				{
					TimeKey: "2000-Q1",
					Groups:  []string{"West <&> \"quoted\"\nnewline\ttab"},
					Values:  []float64{0, math.Copysign(0, -1)},
					CFs:     []core.Confidence{sd, am},
				},
			},
		})},
		{"empty inner arrays", selectOutput(0, core.Result{
			Rows: []*core.Row{{TimeKey: "1999", Groups: []string{}, Values: []float64{}, CFs: []core.Confidence{}}},
		})},
		{"nil inner arrays", selectOutput(0, core.Result{
			Rows: []*core.Row{{TimeKey: "1999"}},
		})},
		{"float extremes", selectOutput(1e-7, core.Result{
			MeasureNames: []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"},
			Rows: []*core.Row{{
				TimeKey: "x",
				Groups:  []string{},
				Values: []float64{
					1e21, 1e20, -1e21, 1e-6, 9.999999e-7,
					math.MaxFloat64, math.SmallestNonzeroFloat64,
					123456789.123456789, 0.1, -2.5,
				},
				CFs: []core.Confidence{sd, sd, sd, sd, sd, em, em, am, uk, core.Confidence(9)},
			}},
		})},
		{"integral edges", selectOutput(1, core.Result{
			MeasureNames: []string{"v"},
			Rows: func() []*core.Row {
				var rows []*core.Row
				for _, v := range integralEdges {
					rows = append(rows, &core.Row{TimeKey: "x", Groups: []string{}, Values: []float64{v}, CFs: []core.Confidence{sd}})
				}
				return rows
			}(),
		})},
		{"string edge cases", selectOutput(0, core.Result{
			Mode:         escaped,
			MeasureNames: []string{"<m>"},
			GroupNames:   []string{"Org.<b>Division</b>"},
			Rows: []*core.Row{{
				TimeKey: "\x00\x01\x1f\x7f",
				Groups: []string{
					"héllo wörld", "\u2028line\u2029sep", "日本語",
					string([]byte{0xff, 0xfe, 'a'}), "<script>&amp;</script>",
					"back\\slash \"quote\"",
				},
				Values: []float64{},
				CFs:    []core.Confidence{},
			}},
		})},
		{"modes statement", &tql.Output{Modes: []core.Mode{core.TCM(), escaped}}},
		{"quality statement", &tql.Output{Quality: 0.5, Ranking: []tql.ModeQuality{{Mode: core.TCM(), Quality: 0.5}}}},
		{"explain statement", &tql.Output{Lineage: "Dpt.Jones <- Dpt.Bill"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireWireForm(t, tc.out)
		})
	}
}

// TestEncodeNonFiniteValuesAreNull covers what the differential tests
// cannot: encoding/json has no rendering of ±Inf to compare against. A
// sum that overflowed is as unknown as a NaN.
func TestEncodeNonFiniteValuesAreNull(t *testing.T) {
	out := selectOutput(1, core.Result{Rows: []*core.Row{{
		TimeKey: "2001",
		Groups:  []string{},
		Values:  []float64{math.Inf(1), math.Inf(-1), math.NaN()},
		CFs:     []core.Confidence{core.SourceData, core.SourceData, core.SourceData},
	}}})
	var resp struct {
		Rows []struct {
			Values []*float64 `json:"values"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(encodeQueryResponse(out, nil), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 || len(resp.Rows[0].Values) != 3 {
		t.Fatalf("decoded %+v", resp)
	}
	for i, v := range resp.Rows[0].Values {
		if v != nil {
			t.Errorf("value %d decoded as %v, want null", i, *v)
		}
	}
}

// TestEncodeQueryResponseRandomized cross-checks the encoder against
// encoding/json on seeded random outputs of every statement kind,
// untraced and traced: 500 SELECT results, then 100 each of rankings,
// mode lists and lineages. The results draw random row counts (past the
// point where the buffer is sized from the first rows), random strings
// over a byte alphabet rich in escapes, random floats spanning the
// format-switch boundaries and the integer path's edges, random unknown
// values and measure counts down to none.
func TestEncodeQueryResponseRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []byte("ab \"\\<>&\n\r\t\x00\x1fé\xff日")
	randStr := func() string {
		n := rng.Intn(12)
		b := make([]byte, 0, n)
		for i := 0; i < n; i++ {
			b = append(b, alphabet[rng.Intn(len(alphabet))])
		}
		return string(b)
	}
	randStrs := func() []string {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []string{}
		}
		out := make([]string, rng.Intn(3)+1)
		for i := range out {
			out[i] = randStr()
		}
		return out
	}
	randFloat := func() float64 {
		switch rng.Intn(7) {
		case 0:
			return 0
		case 6:
			return integralEdges[rng.Intn(len(integralEdges))]
		case 1:
			return rng.Float64() * 1e-6 * 2 // straddles the 'e' switch
		case 2:
			return rng.Float64() * 2e21
		case 3:
			return -rng.NormFloat64() * 1e3
		case 4:
			return math.NaN()
		default:
			return float64(rng.Intn(10000)) / 16
		}
	}
	// A quality factor is never NaN, which encoding/json cannot write.
	randQuality := func() float64 {
		if q := randFloat(); !math.IsNaN(q) {
			return q
		}
		return 1
	}
	randMode := func() core.Mode {
		if rng.Intn(3) == 0 {
			return core.TCM()
		}
		return core.InVersion(&core.StructureVersion{ID: randStr(), Valid: temporal.Between(temporal.Instant(rng.Intn(50)), temporal.Now)})
	}
	// Every statement kind but SELECT, drawn on top of the SELECT trials.
	others := []func() *tql.Output{
		func() *tql.Output { // QUALITY
			out := &tql.Output{}
			for i := rng.Intn(4); i > 0; i-- {
				out.Ranking = append(out.Ranking, tql.ModeQuality{Mode: randMode(), Quality: randQuality()})
			}
			if len(out.Ranking) > 0 {
				out.Quality = out.Ranking[0].Quality
			}
			return out
		},
		func() *tql.Output { // MODES
			out := &tql.Output{}
			for i := rng.Intn(4); i > 0; i-- {
				out.Modes = append(out.Modes, randMode())
			}
			return out
		},
		func() *tql.Output { return &tql.Output{Lineage: randStr()} }, // EXPLAIN
	}
	for trial := 0; trial < 500; trial++ {
		res := core.Result{
			MeasureNames: randStrs(),
			GroupNames:   randStrs(),
			Mode:         core.InVersion(&core.StructureVersion{ID: randStr()}),
			Dropped:      rng.Intn(3),
		}
		if rng.Intn(8) > 0 {
			res.Rows = []*core.Row{}
			nm := rng.Intn(4)
			for i := rng.Intn(3 * rowsSizedFrom); i > 0; i-- {
				row := &core.Row{TimeKey: randStr(), Groups: randStrs()}
				for j := 0; j < nm; j++ {
					row.Values = append(row.Values, randFloat())
					row.CFs = append(row.CFs, core.Confidence(rng.Intn(5)))
				}
				res.Rows = append(res.Rows, row)
			}
		}
		requireWireForm(t, selectOutput(randQuality(), res))
		if t.Failed() {
			t.Fatalf("trial %d: %+v", trial, res)
		}
	}
	for trial := 0; trial < 300; trial++ {
		out := others[trial%len(others)]()
		requireWireForm(t, out)
		if t.Failed() {
			t.Fatalf("trial %d: %+v", trial, out)
		}
	}
}
