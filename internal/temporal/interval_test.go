package temporal

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// genInterval builds a reasonably small random interval, occasionally
// unbounded, for property tests.
func genInterval(r *rand.Rand) Interval {
	start := YM(2000+r.Intn(10), r.Intn(12)+1)
	switch r.Intn(5) {
	case 0:
		return Since(start)
	case 1: // sometimes empty
		return Interval{start, start - Instant(r.Intn(3))}
	default:
		return Interval{start, start + Instant(r.Intn(48))}
	}
}

func (Interval) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genInterval(r))
}

func TestIntervalBasics(t *testing.T) {
	iv := Between(YM(2001, 1), YM(2002, 12))
	if iv.Empty() {
		t.Fatal("non-empty interval reported empty")
	}
	if !iv.Contains(YM(2001, 1)) || !iv.Contains(YM(2002, 12)) {
		t.Error("closed interval must contain both endpoints")
	}
	if iv.Contains(YM(2000, 12)) || iv.Contains(YM(2003, 1)) {
		t.Error("interval contains instants outside bounds")
	}
	if iv.Duration() != 24 {
		t.Errorf("Duration = %d, want 24", iv.Duration())
	}
	if Since(YM(2003, 1)).Duration() != -1 {
		t.Error("unbounded interval must report duration -1")
	}
	if got := iv.String(); got != "[01/2001 ; 12/2002]" {
		t.Errorf("String = %q", got)
	}
}

func TestIntervalIntersect(t *testing.T) {
	cases := []struct {
		a, b, want Interval
	}{
		{Between(Year(2001), EndOfYear(2002)), Between(Year(2002), EndOfYear(2003)), Between(Year(2002), EndOfYear(2002))},
		{Since(Year(2003)), Between(Year(2001), EndOfYear(2002)), Interval{Year(2003), EndOfYear(2002)}},
		{Always, Since(Year(2001)), Since(Year(2001))},
	}
	for i, c := range cases {
		got := c.a.Intersect(c.b)
		if !got.Equal(c.want) {
			t.Errorf("case %d: Intersect = %v, want %v", i, got, c.want)
		}
	}
}

func TestIntersectProperties(t *testing.T) {
	commutative := func(a, b Interval) bool {
		return a.Intersect(b).Equal(b.Intersect(a))
	}
	idempotent := func(a Interval) bool {
		return a.Intersect(a).Equal(a)
	}
	associative := func(a, b, c Interval) bool {
		return a.Intersect(b).Intersect(c).Equal(a.Intersect(b.Intersect(c)))
	}
	contained := func(a, b Interval) bool {
		x := a.Intersect(b)
		return a.ContainsInterval(x) && b.ContainsInterval(x)
	}
	for name, f := range map[string]any{
		"commutative": commutative,
		"idempotent":  idempotent,
		"associative": associative,
		"contained":   contained,
	} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestHullProperties(t *testing.T) {
	covers := func(a, b Interval) bool {
		h := a.Hull(b)
		return h.ContainsInterval(a) && h.ContainsInterval(b)
	}
	if err := quick.Check(covers, nil); err != nil {
		t.Error(err)
	}
}

func TestAdjacent(t *testing.T) {
	a := Between(Year(2001), EndOfYear(2001))
	b := Between(Year(2002), EndOfYear(2002))
	if !a.Adjacent(b) || !b.Adjacent(a) {
		t.Error("2001 and 2002 must be adjacent")
	}
	if a.Adjacent(a) {
		t.Error("an interval is not adjacent to itself")
	}
	c := Between(Year(2003), EndOfYear(2003))
	if a.Adjacent(c) {
		t.Error("2001 and 2003 are not adjacent")
	}
	if Since(Year(2001)).Adjacent(Since(Year(2005))) {
		t.Error("an interval ending Now has no successor")
	}
}

func TestParseInterval(t *testing.T) {
	cases := []struct {
		in      string
		want    Interval
		wantErr bool
	}{
		{"[01/2001 ; 12/2002]", Between(YM(2001, 1), YM(2002, 12)), false},
		{"[01/2003 ; Now]", Since(YM(2003, 1)), false},
		{"2001..2002", Between(Year(2001), Year(2002)), false},
		{"garbage", Interval{}, true},
		{"[x ; y]", Interval{}, true},
		{"[01/2001 ; zz]", Interval{}, true},
	}
	for _, c := range cases {
		got, err := ParseInterval(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseInterval(%q): want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseInterval(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("ParseInterval(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIntervalStringRoundTripProperty(t *testing.T) {
	f := func(a Interval) bool {
		if a.Empty() {
			return true
		}
		parsed, err := ParseInterval(a.String())
		return err == nil && parsed.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionCaseStudy(t *testing.T) {
	// Valid times from the paper's Org dimension: Sales [2001, Now],
	// Jones [2001, 12/2002], Bill and Paul [2003, Now], plus the Smith
	// relationship change at 01/2002. Expect elementary boundaries at
	// 01/2001, 01/2002, 01/2003.
	in := []Interval{
		Since(YM(2001, 1)),                 // Sales
		Between(YM(2001, 1), YM(2002, 12)), // Jones
		Since(YM(2003, 1)),                 // Bill, Paul
		Between(YM(2001, 1), YM(2001, 12)), // Smith->Sales rel
		Since(YM(2002, 1)),                 // Smith->R&D rel
	}
	got := Partition(in)
	want := []Interval{
		Between(YM(2001, 1), YM(2001, 12)),
		Between(YM(2002, 1), YM(2002, 12)),
		Since(YM(2003, 1)),
	}
	if len(got) != len(want) {
		t.Fatalf("Partition = %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Errorf("elementary[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPartitionProperties(t *testing.T) {
	disjointSortedCovering := func(in []Interval) bool {
		elems := Partition(in)
		// Sorted and disjoint.
		for i := 1; i < len(elems); i++ {
			if elems[i].Start <= elems[i-1].End {
				return false
			}
		}
		// Every input interval is exactly covered: each input start and
		// end instant must fall inside some elementary interval, and each
		// elementary interval must be fully inside some input.
		for _, iv := range in {
			if iv.Empty() {
				continue
			}
			if !coveredByAny(iv.Start, elems) {
				return false
			}
			if iv.End != Now && !coveredByAny(iv.End, elems) {
				return false
			}
		}
		for _, e := range elems {
			inside := false
			for _, iv := range in {
				if iv.ContainsInterval(e) {
					inside = true
					break
				}
			}
			if !inside {
				return false
			}
		}
		return true
	}
	if err := quick.Check(disjointSortedCovering, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPartitionRespectsInputBoundaries(t *testing.T) {
	// No elementary interval may straddle an input boundary.
	f := func(in []Interval) bool {
		elems := Partition(in)
		for _, e := range elems {
			for _, iv := range in {
				if iv.Empty() {
					continue
				}
				x := e.Intersect(iv)
				if !x.Empty() && !x.Equal(e) {
					return false // partial overlap: boundary violated
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// coveredByAny is the naive coverage test Partition's sweep replaces;
// the property tests keep it as their reference.
func coveredByAny(t Instant, intervals []Interval) bool {
	for _, iv := range intervals {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// TestPartitionMatchesNaive holds the sweep to the quadratic
// construction it replaced: cut at every start and end+1, keep the
// elementary intervals some input covers.
func TestPartitionMatchesNaive(t *testing.T) {
	naive := func(in []Interval) []Interval {
		var cuts []Instant
		for _, iv := range in {
			if iv.Empty() {
				continue
			}
			cuts = append(cuts, iv.Start)
			if iv.End != Now {
				cuts = append(cuts, iv.End.Next())
			}
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		var out []Interval
		for i, c := range cuts {
			end := Now
			if i+1 < len(cuts) {
				end = cuts[i+1].Prev()
			}
			if coveredByAny(c, in) {
				out = append(out, Interval{c, end})
			}
		}
		return out
	}
	f := func(raw []Interval, open []bool) bool {
		// Small instants collide often; some inputs end at Now.
		in := make([]Interval, len(raw))
		for i, iv := range raw {
			in[i] = Interval{iv.Start % 40, iv.End % 40}
			if i < len(open) && open[i] {
				in[i].End = Now
			}
		}
		got, want := Partition(in), naive(in)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPartitionGapsAndOpenEnds pins the sweep's coverage clipping:
// instants no input covers produce no elementary interval, an open
// (Now-ended) input keeps the tail open, and duplicate or nested
// inputs neither add nor hide a cut.
func TestPartitionGapsAndOpenEnds(t *testing.T) {
	y := Year
	cases := []struct {
		name string
		in   []Interval
		want []Interval
	}{
		{"single closed", []Interval{Between(y(2001), y(2002))},
			[]Interval{Between(y(2001), y(2002))}},
		{"single open", []Interval{Since(y(2001))},
			[]Interval{Since(y(2001))}},
		{"gap between closed inputs",
			[]Interval{Between(y(2001), EndOfYear(2001)), Between(y(2003), EndOfYear(2003))},
			[]Interval{Between(y(2001), EndOfYear(2001)), Between(y(2003), EndOfYear(2003))}},
		{"gap before an open tail",
			[]Interval{Between(y(2001), EndOfYear(2001)), Since(y(2004))},
			[]Interval{Between(y(2001), EndOfYear(2001)), Since(y(2004))}},
		{"open input bridges a gap",
			[]Interval{Since(y(2000)), Between(y(2001), EndOfYear(2001)), Between(y(2003), EndOfYear(2003))},
			[]Interval{
				Between(y(2000), EndOfYear(2000)),
				Between(y(2001), EndOfYear(2001)),
				Between(y(2002), EndOfYear(2002)),
				Between(y(2003), EndOfYear(2003)),
				Since(y(2004)),
			}},
		{"adjacent inputs leave no gap",
			[]Interval{Between(y(2001), EndOfYear(2001)), Between(y(2002), EndOfYear(2002))},
			[]Interval{Between(y(2001), EndOfYear(2001)), Between(y(2002), EndOfYear(2002))}},
		{"nested and duplicate inputs",
			[]Interval{Since(y(2001)), Since(y(2001)), Between(y(2002), EndOfYear(2002)), Between(y(2002), EndOfYear(2002))},
			[]Interval{Between(y(2001), EndOfYear(2001)), Between(y(2002), EndOfYear(2002)), Since(y(2003))}},
		{"single-instant input inside a gap",
			[]Interval{Between(y(2001), EndOfYear(2001)), Between(y(2003), y(2003)), Since(y(2005))},
			[]Interval{Between(y(2001), EndOfYear(2001)), Between(y(2003), y(2003)), Since(y(2005))}},
		{"unbounded below",
			[]Interval{Always, Between(y(2001), EndOfYear(2001))},
			[]Interval{Between(Origin, YM(2000, 12)), Between(y(2001), EndOfYear(2001)), Since(y(2002))}},
		{"empty inputs are ignored",
			[]Interval{{y(2002), y(2001)}, Between(y(2001), EndOfYear(2001))},
			[]Interval{Between(y(2001), EndOfYear(2001))}},
	}
	for _, tc := range cases {
		got := Partition(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("%s: Partition = %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: elementary[%d] = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

func TestPartitionEmpty(t *testing.T) {
	if got := Partition(nil); got != nil {
		t.Errorf("Partition(nil) = %v", got)
	}
	if got := Partition([]Interval{{Year(2002), Year(2001)}}); got != nil {
		t.Errorf("Partition(empty intervals) = %v", got)
	}
}
