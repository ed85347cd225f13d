package schemaio

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

// edgeSchema is a two-dimension, two-measure warehouse whose members
// are valid over all of time, so facts can sit on the sentinel
// instants.
func edgeSchema(t testing.TB) *core.Schema {
	t.Helper()
	s := core.NewSchema("edge", core.Measure{Name: "a", Agg: core.Sum}, core.Measure{Name: "b", Agg: core.Sum})
	for _, dim := range []struct {
		id      core.DimID
		members []core.MVID
	}{{"Org", []core.MVID{"x", "y"}}, {"Geo", []core.MVID{"p"}}} {
		d := core.NewDimension(dim.id, string(dim.id))
		for _, id := range dim.members {
			if err := d.AddVersion(&core.MemberVersion{ID: id, Level: "Leaf", Valid: temporal.Between(temporal.Origin, temporal.Now)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AddDimension(d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// reload rebuilds a schema from its structure document and facts
// payload, the way the snapshot container stores it.
func reload(t testing.TB, s *core.Schema) *core.Schema {
	t.Helper()
	var doc bytes.Buffer
	if err := WriteStructure(&doc, s); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Facts().Len() != 0 {
		t.Fatalf("structure document carried %d facts", back.Facts().Len())
	}
	if err := DecodeFacts(EncodeFacts(s), back); err != nil {
		t.Fatal(err)
	}
	return back
}

func sameFacts(t *testing.T, got, want []*core.Fact) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d facts, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Coords.Equal(want[i].Coords) || got[i].Time != want[i].Time {
			t.Errorf("fact %d = %v@%d, want %v@%d", i, got[i].Coords, got[i].Time, want[i].Coords, want[i].Time)
		}
		for k, v := range want[i].Values {
			if math.Float64bits(got[i].Values[k]) != math.Float64bits(v) {
				t.Errorf("fact %d value %d = %x, want %x", i, k, math.Float64bits(got[i].Values[k]), math.Float64bits(v))
			}
		}
	}
}

// TestFactsRoundTripEdges: what text cannot carry survives the binary
// codec — NaN payload bits, negative zero, the Now and Origin
// sentinels — and a replaced coordinate keeps its original position.
func TestFactsRoundTripEdges(t *testing.T) {
	s := edgeSchema(t)
	payloadNaN := math.Float64frombits(0x7ff8_dead_beef_0001)
	s.MustInsertFact(core.Coords{"x", "p"}, temporal.Year(2001), 1, 2)
	s.MustInsertFact(core.Coords{"y", "p"}, temporal.Now, payloadNaN, math.Copysign(0, -1))
	s.MustInsertFact(core.Coords{"y", "p"}, temporal.Origin, math.Inf(-1), 1e300)
	s.MustInsertFact(core.Coords{"x", "p"}, temporal.Year(2001), 7, math.NaN()) // replaces fact 0 in place
	if s.Facts().Len() != 3 {
		t.Fatalf("fixture has %d facts, want 3", s.Facts().Len())
	}
	sameFacts(t, reload(t, s).Facts().Facts(), s.Facts().Facts())

	// JSON cannot: this is why the container does not use Write.
	if err := Write(&bytes.Buffer{}, s); err == nil {
		t.Error("the JSON writer accepted a NaN value")
	}
}

// TestFactsRoundTripCaseStudy: a reloaded warehouse is the same
// document as the one written, and an empty fact table round-trips.
func TestFactsRoundTripCaseStudy(t *testing.T) {
	for _, cfg := range []casestudy.Config{{}, {WithFacts: true, WithSplitMappings: true}} {
		s, err := casestudy.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := Write(&want, s); err != nil {
			t.Fatal(err)
		}
		if err := Write(&got, reload(t, s)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("WithFacts=%v: reloaded warehouse differs", cfg.WithFacts)
		}
	}
}

func TestFactsDecodeRejectsCorruption(t *testing.T) {
	s := edgeSchema(t)
	s.MustInsertFact(core.Coords{"x", "p"}, temporal.Year(2001), 1, 2)
	s.MustInsertFact(core.Coords{"y", "p"}, temporal.Year(2002), 3, 4)
	data := EncodeFacts(s)
	discard := func(core.Coords, temporal.Instant, []float64) error { return nil }
	for n := 0; n < len(data); n++ {
		if err := decodeFacts(data[:n], discard); err == nil {
			t.Fatalf("truncation at %d of %d decoded", n, len(data))
		}
	}
	if err := decodeFacts(append(append([]byte{}, data...), 0), discard); err == nil {
		t.Error("trailing byte must fail")
	}
	// A payload for another schema is refused by InsertFact's checks.
	other, err := casestudy.New(casestudy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeFacts(data, other); err == nil {
		t.Error("facts of a two-dimension schema loaded into the case study")
	}
	// The same cell twice is not something a fact table encodes.
	facts := s.Facts().Facts()
	twice := encodeFacts(walkOf(slices.Concat(facts, facts[:1])), len(facts)+1, 2, 2)
	if err := DecodeFacts(twice, edgeSchema(t)); err == nil {
		t.Error("a payload naming one cell twice must fail")
	}
}

// FuzzFactsCodec: decoding arbitrary bytes never panics and allocates
// in proportion to the input (every count is checked against the bytes
// left before anything is sized by it); whatever decodes re-encodes to
// a payload that decodes to the same facts.
func FuzzFactsCodec(f *testing.F) {
	for _, cfg := range []casestudy.Config{{}, {WithFacts: true, WithSplitMappings: true}} {
		s, err := casestudy.New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeFacts(s))
	}
	edge := edgeSchema(f)
	edge.MustInsertFact(core.Coords{"y", "p"}, temporal.Now, math.NaN(), math.Copysign(0, -1))
	edge.MustInsertFact(core.Coords{"x", "p"}, temporal.Origin, 1, 2)
	f.Add(EncodeFacts(edge))
	f.Add([]byte("MVFC01"))
	f.Add([]byte("MVFC01\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		collect := func(into *[]*core.Fact) func(core.Coords, temporal.Instant, []float64) error {
			return func(c core.Coords, at temporal.Instant, v []float64) error {
				*into = append(*into, &core.Fact{Coords: c.Clone(), Time: at, Values: append([]float64(nil), v...)})
				return nil
			}
		}
		var facts []*core.Fact
		if err := decodeFacts(data, collect(&facts)); err != nil || len(facts) == 0 {
			return
		}
		var back []*core.Fact
		if err := decodeFacts(encodeFacts(walkOf(facts), len(facts), len(facts[0].Coords), len(facts[0].Values)), collect(&back)); err != nil {
			t.Fatalf("re-encoded facts failed to decode: %v", err)
		}
		sameFacts(t, back, facts)
	})
}

// walkOf walks a slice of facts the way encodeFacts walks a fact table.
func walkOf(facts []*core.Fact) func(func(*core.Fact) bool) {
	return func(yield func(*core.Fact) bool) {
		for _, f := range facts {
			if !yield(f) {
				return
			}
		}
	}
}
