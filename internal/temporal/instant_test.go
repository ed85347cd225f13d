package temporal

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestYMRoundTrip(t *testing.T) {
	cases := []struct {
		year, month int
	}{
		{2001, 1}, {2002, 12}, {1999, 6}, {0, 1}, {0, 12}, {2100, 7},
	}
	for _, c := range cases {
		i := YM(c.year, c.month)
		if got := i.YearOf(); got != c.year {
			t.Errorf("YM(%d,%d).YearOf() = %d", c.year, c.month, got)
		}
		if got := i.MonthOf(); got != c.month {
			t.Errorf("YM(%d,%d).MonthOf() = %d", c.year, c.month, got)
		}
	}
}

func TestYMRoundTripProperty(t *testing.T) {
	f := func(y int16, m uint8) bool {
		month := int(m%12) + 1
		i := YM(int(y), month)
		return i.YearOf() == int(y) && i.MonthOf() == month
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegativeInstants(t *testing.T) {
	i := YM(-1, 12)
	if i.YearOf() != -1 || i.MonthOf() != 12 {
		t.Errorf("YM(-1,12) round-trip failed: %d/%d", i.MonthOf(), i.YearOf())
	}
	if YM(-1, 12).Next() != YM(0, 1) {
		t.Error("Dec of year -1 should precede Jan of year 0")
	}
}

func TestNextPrev(t *testing.T) {
	if got := YM(2001, 12).Next(); got != YM(2002, 1) {
		t.Errorf("Next across year boundary = %v", got)
	}
	if got := YM(2002, 1).Prev(); got != YM(2001, 12) {
		t.Errorf("Prev across year boundary = %v", got)
	}
	if Now.Next() != Now || Now.Prev() != Now {
		t.Error("Now must be a fixed point of Next and Prev")
	}
	if Origin.Prev() != Origin {
		t.Error("Origin must be a fixed point of Prev")
	}
}

func TestInstantString(t *testing.T) {
	cases := []struct {
		in   Instant
		want string
	}{
		{YM(2001, 1), "01/2001"},
		{YM(2002, 12), "12/2002"},
		{Now, "Now"},
		{Origin, "-inf"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// TestInstantAppendMatchesSprintf: Append, which String renders
// through, writes fmt's "%02d/%04d" of month and year for every instant
// from year -10 000 to year 100 000, negative years' sign included.
func TestInstantAppendMatchesSprintf(t *testing.T) {
	for i := YM(-10000, 1); i <= YM(100000, 12); i++ {
		want := fmt.Sprintf("%02d/%04d", i.MonthOf(), i.YearOf())
		if got := string(i.Append([]byte("x"))); got != "x"+want {
			t.Fatalf("Append(%d) = %q, want %q", int64(i), got, "x"+want)
		}
	}
}

func TestParseInstant(t *testing.T) {
	cases := []struct {
		in      string
		want    Instant
		wantErr bool
	}{
		{"01/2001", YM(2001, 1), false},
		{"12/2002", YM(2002, 12), false},
		{"2003", Year(2003), false},
		{"Now", Now, false},
		{"now", Now, false},
		{" 06/1999 ", YM(1999, 6), false},
		{"13/2001", 0, true},
		{"0/2001", 0, true},
		{"abc", 0, true},
		{"xx/2001", 0, true},
		{"01/yy", 0, true},
	}
	for _, c := range cases {
		got, err := ParseInstant(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseInstant(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseInstant(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseInstant(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseInstantRoundTripProperty(t *testing.T) {
	f := func(y uint16, m uint8) bool {
		i := YM(int(y), int(m%12)+1)
		parsed, err := ParseInstant(i.String())
		return err == nil && parsed == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	a, b := YM(2001, 3), YM(2002, 7)
	if Min(a, b) != a || Min(b, a) != a {
		t.Error("Min is wrong")
	}
	if Max(a, b) != b || Max(b, a) != b {
		t.Error("Max is wrong")
	}
	if Min(a, Now) != a || Max(a, Now) != Now {
		t.Error("Now must dominate every instant")
	}
}

func TestSentinelPanics(t *testing.T) {
	for _, s := range []Instant{Now, Origin} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("YearOf(%v) should panic", s)
				}
			}()
			_ = s.YearOf()
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MonthOf(%v) should panic", s)
				}
			}()
			_ = s.MonthOf()
		}()
	}
}

func TestBeforeAfter(t *testing.T) {
	a, b := YM(2001, 5), YM(2001, 6)
	if !a.Before(b) || b.Before(a) || a.Before(a) {
		t.Error("Before wrong")
	}
	if !b.After(a) || a.After(b) || a.After(a) {
		t.Error("After wrong")
	}
}
