package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func (Confidence) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(Confidence(r.Intn(int(numConfidence))))
}

// TestPaperAlgebraTable checks every entry of the Example 5 truth table.
func TestPaperAlgebraTable(t *testing.T) {
	alg := PaperAlgebra()
	sd, em, am, uk := SourceData, ExactMapping, ApproxMapping, UnknownMapping
	want := map[[2]Confidence]Confidence{
		{sd, sd}: sd, {sd, em}: em, {sd, am}: am, {sd, uk}: uk,
		{em, sd}: em, {em, em}: em, {em, am}: am, {em, uk}: uk,
		{am, sd}: am, {am, em}: am, {am, am}: am, {am, uk}: uk,
		{uk, sd}: uk, {uk, em}: uk, {uk, am}: uk, {uk, uk}: uk,
	}
	for pair, w := range want {
		if got := alg.Combine(pair[0], pair[1]); got != w {
			t.Errorf("%v ⊗ %v = %v, want %v", pair[0], pair[1], got, w)
		}
	}
}

// TestPaperAlgebraLaws verifies the monoid laws of the Example 5 table:
// commutative, associative, idempotent, identity sd, absorbing uk.
func TestPaperAlgebraLaws(t *testing.T) {
	alg := PaperAlgebra()
	comm := func(a, b Confidence) bool { return alg.Combine(a, b) == alg.Combine(b, a) }
	assoc := func(a, b, c Confidence) bool {
		return alg.Combine(alg.Combine(a, b), c) == alg.Combine(a, alg.Combine(b, c))
	}
	idem := func(a Confidence) bool { return alg.Combine(a, a) == a }
	ident := func(a Confidence) bool { return alg.Combine(SourceData, a) == a }
	absorb := func(a Confidence) bool { return alg.Combine(UnknownMapping, a) == UnknownMapping }
	for name, f := range map[string]any{
		"commutative": comm, "associative": assoc, "idempotent": idem,
		"identity-sd": ident, "absorbing-uk": absorb,
	} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestCombineNeverImproves: combining can never yield a factor strictly
// more reliable than both operands (reliability order sd > em > am > uk).
func TestCombineNeverImproves(t *testing.T) {
	for _, alg := range []ConfidenceAlgebra{PaperAlgebra(), NewQuantitativeAlgebra()} {
		f := func(a, b Confidence) bool {
			c := alg.Combine(a, b)
			return c >= a || c >= b
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

func TestQuantitativeAlgebra(t *testing.T) {
	alg := NewQuantitativeAlgebra()
	cases := []struct {
		a, b, want Confidence
	}{
		{SourceData, SourceData, SourceData},
		{SourceData, ExactMapping, ExactMapping},
		{SourceData, UnknownMapping, UnknownMapping},
		{ExactMapping, ExactMapping, ExactMapping}, // 0.81 → em
		{ApproxMapping, SourceData, ApproxMapping},
		{UnknownMapping, UnknownMapping, UnknownMapping},
	}
	for _, c := range cases {
		if got := alg.Combine(c.a, c.b); got != c.want {
			t.Errorf("%v ⊗ %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if alg.Name() != "quantitative" {
		t.Errorf("Name = %q", alg.Name())
	}
}

func TestConfidenceStringAndCodes(t *testing.T) {
	cases := []struct {
		c    Confidence
		str  string
		code int
	}{
		{SourceData, "sd", 3},
		{ExactMapping, "em", 2},
		{ApproxMapping, "am", 1},
		{UnknownMapping, "uk", 4},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.str {
			t.Errorf("String(%d) = %q, want %q", c.c, got, c.str)
		}
		if got := c.c.PrototypeCode(); got != c.code {
			t.Errorf("PrototypeCode(%v) = %d, want %d", c.c, got, c.code)
		}
		parsed, err := ParseConfidence(c.str)
		if err != nil || parsed != c.c {
			t.Errorf("ParseConfidence(%q) = %v, %v", c.str, parsed, err)
		}
	}
	if _, err := ParseConfidence("xx"); err == nil {
		t.Error("ParseConfidence(xx) should fail")
	}
	if Confidence(99).String() == "" {
		t.Error("out-of-range String should not be empty")
	}
	if Confidence(99).PrototypeCode() != 0 {
		t.Error("out-of-range PrototypeCode should be 0")
	}
}

func TestTruthTableOutOfRange(t *testing.T) {
	alg := PaperAlgebra()
	if got := alg.Combine(Confidence(99), SourceData); got != UnknownMapping {
		t.Errorf("out-of-range operand must combine to uk, got %v", got)
	}
	qa := NewQuantitativeAlgebra()
	if got := qa.Combine(Confidence(99), SourceData); got != UnknownMapping {
		t.Errorf("quantitative out-of-range operand must combine to uk, got %v", got)
	}
}

func TestAlgebraNames(t *testing.T) {
	if PaperAlgebra().Name() != "paper-example-5" {
		t.Errorf("paper algebra name = %q", PaperAlgebra().Name())
	}
}
