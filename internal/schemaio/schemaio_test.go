package schemaio

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/temporal"
	"mvolap/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	s, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name {
		t.Errorf("name = %q", back.Name)
	}
	if back.Facts().Len() != s.Facts().Len() {
		t.Errorf("facts = %d, want %d", back.Facts().Len(), s.Facts().Len())
	}
	if len(back.Mappings()) != len(s.Mappings()) {
		t.Errorf("mappings = %d", len(back.Mappings()))
	}
	// The round-tripped schema answers the paper's queries identically.
	for _, yr := range []int{2001, 2002, 2003} {
		want := s.VersionAt(temporal.Year(yr))
		got := back.VersionAt(temporal.Year(yr))
		if want == nil || got == nil || !want.Valid.Equal(got.Valid) {
			t.Errorf("version at %d differs: %v vs %v", yr, want, got)
		}
	}
	q := core.Query{
		GroupBy: []core.GroupBy{{Dim: casestudy.OrgDim, Level: "Department"}},
		Grain:   core.GrainYear,
		Mode:    core.InVersion(back.VersionAt(temporal.Year(2002))),
	}
	res, err := back.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Rows() {
		if r.TimeKey == "2003" && r.Groups[0] == "Dpt.Jones" {
			found = true
			if r.Values[0] != 200 || r.CFs[0] != core.ExactMapping {
				t.Errorf("Table 9 cell after round trip = %v (%v)", r.Values[0], r.CFs[0])
			}
		}
	}
	if !found {
		t.Error("merged row missing after round trip")
	}
}

func TestWriteRejectsCustomFuncs(t *testing.T) {
	s, _ := casestudy.New(casestudy.Config{})
	err := s.AddMapping(core.MappingRelationship{
		From: casestudy.Jones,
		To:   casestudy.Bill,
		Forward: []core.MeasureMapping{{
			Fn: core.Func{F: func(x float64) float64 { return x }}, CF: core.ExactMapping,
		}},
		Backward: core.UniformMapping(1, core.Identity, core.ExactMapping),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err == nil {
		t.Error("custom func mapper must be rejected")
	}
	if err := WriteStructure(&buf, s); err == nil {
		t.Error("custom func mapper must be rejected by WriteStructure")
	}
}

// TestWriteStructureMatchesEncodingJSON: the streamed structure is
// byte for byte encoding/json's compact encoding of the document, on
// the case study, a generated warehouse and a schema of awkward
// strings, attributes, an empty dimension and a negative year; and a
// warehouse's structure reaches the writer in chunks, never whole.
func TestWriteStructureMatchesEncodingJSON(t *testing.T) {
	cs, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(workload.Config{Seed: 3, Divisions: 4, Departments: 300, Years: 6, EvolutionsPerYear: 4, FactsPerYear: 1, Measures: 2})
	if err != nil {
		t.Fatal(err)
	}
	odd := core.NewSchema(`q"u<o>t&e\\ é\u2028`, core.Measure{Name: "m<1>", Agg: core.Max})
	d := core.NewDimension("D\x01", "naïve")
	for _, mv := range []*core.MemberVersion{
		{ID: "a", Member: "A", Name: "Ä \"a\"", Level: "L", Attrs: map[string]string{"z": "1", "a": "<2>", "m": ""}, Valid: temporal.Always},
		{ID: "b", Valid: temporal.Interval{Start: temporal.YM(-5, 3), End: temporal.YM(12, 11)}},
	} {
		if err := d.AddVersion(mv); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddRelationship(core.TemporalRelationship{From: "b", To: "a", Valid: temporal.Interval{Start: temporal.YM(1, 1), End: temporal.YM(12, 11)}}); err != nil {
		t.Fatal(err)
	}
	for _, dim := range []*core.Dimension{d, core.NewDimension("E", "")} {
		if err := odd.AddDimension(dim); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		s    *core.Schema
	}{{"casestudy", cs}, {"workload", w.Schema}, {"odd", odd}, {"empty", core.NewSchema("")}} {
		doc, err := document(c.s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var got chunks
		if err := WriteStructure(&got, c.s); err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteStructure wrote\n%s\nwant\n%s", c.name, got.Bytes(), want)
		}
		if c.name == "workload" && (len(want) < 8*structureChunk || got.largest > 2*structureChunk) {
			t.Errorf("workload: %d-byte structure written with a largest write of %d bytes, want chunks of about %d",
				len(want), got.largest, structureChunk)
		}
	}
}

// chunks is a bytes.Buffer that remembers its largest write.
type chunks struct {
	bytes.Buffer
	largest int
}

func (c *chunks) Write(p []byte) (int, error) {
	c.largest = max(c.largest, len(p))
	return c.Buffer.Write(p)
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"not json",
		`{"unknownField": 1}`,
		`{"name":"x","measures":[{"name":"m","agg":"BOGUS"}]}`,
		`{"name":"x","measures":[{"name":"m","agg":"SUM"}],
		  "dimensions":[{"id":"D","name":"D","versions":[{"id":"a","from":"junk","to":"Now"}]}]}`,
		`{"name":"x","measures":[{"name":"m","agg":"SUM"}],
		  "dimensions":[{"id":"D","name":"D","versions":[{"id":"a","from":"01/2002","to":"01/2001"}]}]}`,
		`{"name":"x","measures":[{"name":"m","agg":"SUM"}],
		  "dimensions":[{"id":"D","name":"D","versions":[{"id":"a","from":"01/2001","to":"Now"}],
		  "relationships":[{"child":"a","parent":"zz","from":"01/2001","to":"Now"}]}]}`,
		`{"name":"x","measures":[{"name":"m","agg":"SUM"}],
		  "mappings":[{"from":"a","to":"b","forward":[{"cf":"xx"}],"backward":[]}]}`,
		`{"name":"x","measures":[{"name":"m","agg":"SUM"}],
		  "mappings":[{"from":"a","to":"b","forward":[{"cf":"em"}],"backward":[{"cf":"em","k":1}]}]}`,
		`{"name":"x","measures":[{"name":"m","agg":"SUM"}],
		  "facts":[{"coords":["a"],"time":"junk","values":[1]}]}`,
		`{"name":"x","measures":[{"name":"m","agg":"SUM"}],
		  "dimensions":[{"id":"D","name":"D","versions":[{"id":"a","from":"01/2001","to":"Now"}]}],
		  "facts":[{"coords":["zz"],"time":"01/2001","values":[1]}]}`,
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("case %d must fail", i)
		}
	}
}

func TestUnknownMapperRoundTrip(t *testing.T) {
	s := core.NewSchema("uk", core.Measure{Name: "m", Agg: core.Sum})
	d := core.NewDimension("D", "D")
	for _, id := range []core.MVID{"a", "b"} {
		if err := d.AddVersion(&core.MemberVersion{ID: id, Valid: temporal.Always}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	if err := s.AddMapping(core.MappingRelationship{
		From:     "a",
		To:       "b",
		Forward:  core.UniformMapping(1, core.Identity, core.ExactMapping),
		Backward: core.UniformMapping(1, core.Unknown{}, core.UnknownMapping),
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := back.Mappings()[0]
	if _, ok := m.Backward[0].Fn.Map(1); ok {
		t.Error("unknown mapper must survive the round trip")
	}
	if m.Backward[0].CF != core.UnknownMapping {
		t.Error("uk confidence must survive")
	}
}
