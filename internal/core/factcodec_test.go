package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/schemaio"
	"mvolap/internal/temporal"
)

// edgeSchema is a two-dimension, two-measure warehouse whose members x,
// y and p are valid over all of time, so facts can sit on the sentinel
// instants; z is valid in 2001 only.
func edgeSchema(t testing.TB) *core.Schema {
	t.Helper()
	s := core.NewSchema("edge", core.Measure{Name: "a", Agg: core.Sum}, core.Measure{Name: "b", Agg: core.Sum})
	for _, dim := range []struct {
		id      core.DimID
		members []core.MVID
	}{{"Org", []core.MVID{"x", "y", "z"}}, {"Geo", []core.MVID{"p"}}} {
		d := core.NewDimension(dim.id, string(dim.id))
		for _, id := range dim.members {
			valid := temporal.Always
			if id == "z" {
				valid = temporal.Between(temporal.Year(2001), temporal.YM(2001, 12))
			}
			if err := d.AddVersion(&core.MemberVersion{ID: id, Level: "Leaf", Valid: valid}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AddDimension(d); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// structureOf rebuilds s's structure, with an empty fact table, from
// its structure document, the way the snapshot container stores it.
func structureOf(t testing.TB, s *core.Schema) *core.Schema {
	t.Helper()
	var doc bytes.Buffer
	if err := schemaio.WriteStructure(&doc, s); err != nil {
		t.Fatal(err)
	}
	back, err := schemaio.Read(&doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Facts().Len() != 0 {
		t.Fatalf("structure document carried %d facts", back.Facts().Len())
	}
	return back
}

// reload rebuilds a schema from its structure document and facts
// payload.
func reload(t testing.TB, s *core.Schema) *core.Schema {
	t.Helper()
	back := structureOf(t, s)
	if err := core.DecodeFacts(core.EncodeFacts(s), back); err != nil {
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

// rawFact is one fact as the payload spells it.
type rawFact struct {
	ords []uint64
	at   temporal.Instant
	vals []float64
}

// payload writes an MVFC04 payload by hand, header widths as given:
// its values as zigzag varints, flagged, when every one is an integer
// within ±2^53 and none is −0, as Float64bits otherwise.
func payload(nd, nm int, facts ...rawFact) []byte {
	ints := true
	for _, f := range facts {
		for _, v := range f.vals {
			ints = ints && v == math.Trunc(v) && math.Abs(v) <= 1<<53 && !(v == 0 && math.Signbit(v))
		}
	}
	flag := []byte{0}
	if ints {
		flag[0] = 1
	}
	out := payloadInstants(payloadHead("MVFC04", flag, nd, nm, facts), facts)
	if !ints {
		return payloadValues(out, facts)
	}
	for _, f := range facts {
		for _, v := range f.vals {
			out = binary.AppendVarint(out, int64(v))
		}
	}
	return out
}

// payloadV3 writes a payload in the earlier MVFC03 layout: no integers
// flag, every value its Float64bits.
func payloadV3(nd, nm int, facts ...rawFact) []byte {
	return payloadValues(payloadInstants(payloadHead("MVFC03", nil, nd, nm, facts), facts), facts)
}

// payloadV2 writes a payload in the earlier MVFC02 layout, whose
// instants are raw int64s.
func payloadV2(nd, nm int, facts ...rawFact) []byte {
	out := payloadHead("MVFC02", nil, nd, nm, facts)
	for _, f := range facts {
		out = binary.LittleEndian.AppendUint64(out, uint64(f.at))
	}
	return payloadValues(out, facts)
}

// payloadHead writes a payload's magic, counts, flag and ordinals.
func payloadHead(magic string, flag []byte, nd, nm int, facts []rawFact) []byte {
	out := binary.AppendUvarint([]byte(magic), uint64(nd))
	out = binary.AppendUvarint(out, uint64(nm))
	out = binary.AppendUvarint(out, uint64(len(facts)))
	out = append(out, flag...)
	for _, f := range facts {
		for _, o := range f.ords {
			out = binary.AppendUvarint(out, o)
		}
	}
	return out
}

// payloadInstants appends the facts' instants to a payload as zigzag
// varint deltas.
func payloadInstants(out []byte, facts []rawFact) []byte {
	var prev temporal.Instant
	for _, f := range facts {
		out = binary.AppendVarint(out, int64(f.at-prev))
		prev = f.at
	}
	return out
}

// payloadValues appends the facts' values to a payload as Float64bits.
func payloadValues(out []byte, facts []rawFact) []byte {
	for _, f := range facts {
		for _, v := range f.vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
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

	// JSON cannot: this is why the container does not use schemaio.Write.
	if err := schemaio.Write(&bytes.Buffer{}, s); err == nil {
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
		if err := schemaio.Write(&want, s); err != nil {
			t.Fatal(err)
		}
		if err := schemaio.Write(&got, reload(t, s)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("WithFacts=%v: reloaded warehouse differs", cfg.WithFacts)
		}
	}
}

// TestFactsCodecTombstonedTable: a retracted fact's slot stays in the
// table but not in the payload, which is byte for byte the payload of
// the surviving facts inserted afresh; the reloaded table holds no dead
// slot and answers like the tombstoned one in every mode.
func TestFactsCodecTombstonedTable(t *testing.T) {
	s, err := casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := s.Facts().Facts()[1]
	if _, err := s.RetractFact(victim.Coords, victim.Time); err != nil {
		t.Fatal(err)
	}
	if ft := s.Facts(); ft.Slots() != ft.Len()+1 {
		t.Fatalf("fact table holds %d slots for %d facts: the fixture must tombstone one", ft.Slots(), ft.Len())
	}
	fresh := structureOf(t, s)
	for _, f := range s.Facts().Facts() {
		fresh.MustInsertFact(f.Coords, f.Time, f.Values...)
	}
	if !bytes.Equal(core.EncodeFacts(s), core.EncodeFacts(fresh)) {
		t.Error("a tombstoned table encodes differently from its live facts inserted afresh")
	}
	back := reload(t, s)
	if ft := back.Facts(); ft.Slots() != ft.Len() || ft.Len() != s.Facts().Len() {
		t.Fatalf("reloaded table holds %d slots for %d facts, want %d of each", ft.Slots(), ft.Len(), s.Facts().Len())
	}
	if got, want := answers(t, back), answers(t, s); got != want {
		t.Errorf("reloaded answers\n%s\nthe tombstoned table's\n%s", got, want)
	}
}

// answers renders a grand total by year in every mode, values by their
// bits.
func answers(t *testing.T, s *core.Schema) string {
	t.Helper()
	var b strings.Builder
	for _, m := range s.Modes() {
		res, err := s.Execute(core.Query{Grain: core.GrainYear, Mode: m})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s dropped %d\n", m, res.Dropped)
		for _, r := range res.Rows() {
			fmt.Fprintf(&b, "%s n=%d", r.TimeKey, r.N)
			for k, v := range r.Values {
				fmt.Fprintf(&b, " %x/%v", math.Float64bits(v), r.CFs[k])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestFactsDecodeRejectsCorruption(t *testing.T) {
	s := edgeSchema(t)
	s.MustInsertFact(core.Coords{"x", "p"}, temporal.Year(2001), 1, 2)
	s.MustInsertFact(core.Coords{"y", "p"}, temporal.Year(2002), 3, 4)
	data := core.EncodeFacts(s)
	if want := payload(2, 2, rawFact{[]uint64{0, 0}, temporal.Year(2001), []float64{1, 2}},
		rawFact{[]uint64{1, 0}, temporal.Year(2002), []float64{3, 4}}); !bytes.Equal(data, want) {
		t.Fatalf("payload\n% x\nwant\n% x", data, want)
	}
	decode := func(data []byte) error { return core.DecodeFacts(data, edgeSchema(t)) }
	if err := decode(data); err != nil {
		t.Fatalf("intact payload: %v", err)
	}
	for n := 0; n < len(data); n++ {
		if err := decode(data[:n]); err == nil {
			t.Fatalf("truncation at %d of %d decoded", n, len(data))
		}
	}
	if err := decode(append(append([]byte{}, data...), 0)); err == nil {
		t.Error("trailing byte must fail")
	}
	if err := decode(append([]byte("MVFC01"), data[6:]...)); !errors.Is(err, core.ErrFactsVersion) {
		t.Errorf("an MVFC01 payload: %v, want ErrFactsVersion", err)
	}
	// A payload for another schema is refused by its widths.
	other, err := casestudy.New(casestudy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.DecodeFacts(data, other); err == nil {
		t.Error("facts of a two-dimension schema loaded into the case study")
	}
	fact := func(ords ...uint64) rawFact { return rawFact{ords, temporal.Year(2001), []float64{1, 2}} }
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"numDims not the schema's", "coordinates", payload(1, 2, rawFact{[]uint64{0}, temporal.Year(2001), []float64{1, 2}})},
		{"numMeasures not the schema's", "values per fact", payload(2, 1, rawFact{[]uint64{0, 0}, temporal.Year(2001), []float64{1}})},
		{"an ordinal past its dimension", "past the 3 versions of dimension Org", payload(2, 2, fact(3, 0))},
		{"an ordinal past the second dimension", "past the 1 versions of dimension Geo", payload(2, 2, fact(0, 1))},
		{"a coordinate not valid at its instant", `coordinate "z" not valid`,
			payload(2, 2, rawFact{[]uint64{2, 0}, temporal.Year(2002), []float64{1, 2}})},
		{"a repeated key", "repeats the key", payload(2, 2, fact(0, 0), fact(1, 0), fact(0, 0))},
	} {
		err := decode(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// z at an instant it is valid at is a fact like any other.
	if err := decode(payload(2, 2, fact(2, 0))); err != nil {
		t.Errorf("z in 2001: %v", err)
	}
}

// TestFactsDecodeRefusesMVFC02: a payload in an earlier codec — MVFC03,
// whose values are all Float64bits, or MVFC02, whose instants are raw
// int64s — is refused by name, not misread.
func TestFactsDecodeRefusesMVFC02(t *testing.T) {
	f := rawFact{[]uint64{0, 0}, temporal.Year(2001), []float64{1, 2}}
	for magic, old := range map[string][]byte{"MVFC03": payloadV3(2, 2, f), "MVFC02": payloadV2(2, 2, f)} {
		err := core.DecodeFacts(old, edgeSchema(t))
		if !errors.Is(err, core.ErrFactsVersion) || !strings.Contains(err.Error(), magic) {
			t.Errorf("%s payload: %v, want ErrFactsVersion naming %s", magic, err, magic)
		}
	}
}

// TestFactsIntegerValues: a section whose every value is an integer
// within ±2^53 writes each as its zigzag varint, flagged; one value
// that is not — −0, a fraction, NaN, ±Inf, 2^53 + 1 — turns the whole
// section to Float64bits. Either way the values come back bit for bit,
// and the hand-written payload is the one encoded.
func TestFactsIntegerValues(t *testing.T) {
	const big = 1 << 53
	for _, c := range []struct {
		name string
		odd  float64
		ints bool
	}{
		{"small", 7, true},
		{"past int16", 32768, true},
		{"2^53", big, true},
		{"-2^53", -big, true},
		{"2^53 + 2", big + 2, false},
		{"-0", math.Copysign(0, -1), false},
		{"a fraction", 0.5, false},
		{"NaN", math.Float64frombits(0x7ff8_0000_0000_0042), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
	} {
		s := edgeSchema(t)
		s.MustInsertFact(core.Coords{"x", "p"}, temporal.Year(2001), 1, -300)
		s.MustInsertFact(core.Coords{"y", "p"}, temporal.Year(2002), 0, c.odd)
		data := core.EncodeFacts(s)
		want := payload(2, 2, rawFact{[]uint64{0, 0}, temporal.Year(2001), []float64{1, -300}},
			rawFact{[]uint64{1, 0}, temporal.Year(2002), []float64{0, c.odd}})
		if !bytes.Equal(data, want) {
			t.Errorf("%s: payload\n% x\nwant\n% x", c.name, data, want)
		}
		if got := data[len("MVFC04")+3] == 1; got != c.ints {
			t.Errorf("%s: integers flag %v, want %v", c.name, got, c.ints)
		}
		sameFacts(t, reload(t, s).Facts().Facts(), s.Facts().Facts())
	}
	// 2^53 + 1 is no float64: the nearest one, 2^53, is integral.
	if v := float64(big + 1); v != big {
		t.Fatalf("2^53 + 1 is a float64: %v", v)
	}
	// A flagged integer past 2^53 and a flag other than 0 or 1 are
	// refused.
	decode := func(data []byte) error { return core.DecodeFacts(data, edgeSchema(t)) }
	over := payloadHead("MVFC04", []byte{1}, 2, 2, []rawFact{{ords: []uint64{0, 0}}})
	over = binary.AppendVarint(binary.AppendVarint(payloadInstants(over, []rawFact{{}}), 1), big+1)
	if err := decode(over); err == nil || !strings.Contains(err.Error(), "bad integer value 1") {
		t.Errorf("a flagged integer past 2^53: %v", err)
	}
	flag := payload(2, 2, rawFact{[]uint64{0, 0}, temporal.Year(2001), []float64{1, 2}})
	flag[len("MVFC04")+3] = 2
	if err := decode(flag); err == nil || !strings.Contains(err.Error(), "flag") {
		t.Errorf("an integers flag of 2: %v", err)
	}
}

// TestFactsInstantDeltas: an instant costs the zigzag varint of its
// step from the one before, in wrapping arithmetic — one byte for a
// month forward or back, one from Origin to Now — and any order of
// instants decodes as written.
func TestFactsInstantDeltas(t *testing.T) {
	s := edgeSchema(t)
	at := []temporal.Instant{temporal.YM(2001, 3), temporal.YM(2001, 4), temporal.YM(2001, 3),
		temporal.Origin, temporal.Now, temporal.YM(1990, 1), temporal.Year(2001)}
	for i, id := range []core.MVID{"x", "y", "y", "x", "y", "x", "z"} {
		s.MustInsertFact(core.Coords{id, "p"}, at[i], float64(i), 0)
	}
	data := core.EncodeFacts(s)
	// From 0 to 03/2001 is three bytes; a step past the int64 range
	// either way (to Origin, from Now) is ten; 1990 to 2001 is two. The
	// values, integers below 64, are a byte each.
	steps := []int{3, 1, 1, 10, 1, 10, 2}
	want := len("MVFC04") + 4 + 2*len(at) + 2*len(at)
	for _, k := range steps {
		want += k
	}
	if len(data) != want {
		t.Errorf("payload is %d bytes, want %d", len(data), want)
	}
	sameFacts(t, reload(t, s).Facts().Facts(), s.Facts().Facts())
}

// FuzzFactsCodec: decoding arbitrary bytes into either fixture's
// structure never panics and allocates in proportion to the input
// (every count is checked against the bytes left before anything is
// sized by it); whatever decodes re-encodes to a payload that decodes
// to the same facts and from then on is a byte-level fixed point.
func FuzzFactsCodec(f *testing.F) {
	var structures []*core.Schema
	for _, cfg := range []casestudy.Config{{}, {WithFacts: true, WithSplitMappings: true}} {
		s, err := casestudy.New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(core.EncodeFacts(s))
		structures = append(structures, s)
	}
	edge := edgeSchema(f)
	edge.MustInsertFact(core.Coords{"y", "p"}, temporal.Now, math.NaN(), math.Copysign(0, -1))
	edge.MustInsertFact(core.Coords{"x", "p"}, temporal.Origin, 1, 2)
	f.Add(core.EncodeFacts(edge))
	structures = append(structures, edge)
	f.Add([]byte("MVFC04"))
	f.Add([]byte("MVFC04\x02\x02\x00\x01"))
	fact := func(org uint64, at temporal.Instant) rawFact { return rawFact{[]uint64{org, 0}, at, []float64{1, 2}} }
	// An integer section, and a float one.
	f.Add(payload(2, 2, fact(0, temporal.Origin), fact(1, temporal.Now)))
	f.Add(payload(2, 2, fact(0, temporal.YM(2003, 1)), rawFact{[]uint64{1, 0}, temporal.YM(2002, 6), []float64{0.5, -3}}))
	f.Add(payload(2, 2, fact(2, temporal.YM(2001, 5))))
	// A payload in the codec before this one, refused.
	f.Add(payloadV3(2, 2, fact(0, temporal.YM(2003, 1)), fact(1, temporal.YM(2002, 6)), fact(0, temporal.YM(2001, 12))))
	// A fact whose instant's varint is cut after a continuation byte.
	f.Add(append(payloadHead("MVFC04", []byte{1}, 2, 2, []rawFact{fact(0, 0)}), 0x80))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, st := range structures {
			s := structureOf(t, st)
			if err := core.DecodeFacts(data, s); err != nil {
				continue
			}
			again := core.EncodeFacts(s)
			back := structureOf(t, st)
			if err := core.DecodeFacts(again, back); err != nil {
				t.Fatalf("re-encoded facts failed to decode: %v", err)
			}
			sameFacts(t, back.Facts().Facts(), s.Facts().Facts())
			if !bytes.Equal(core.EncodeFacts(back), again) {
				t.Fatal("facts round trip is not a fixed point")
			}
		}
	})
}
