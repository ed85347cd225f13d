// Package temporal implements the valid-time algebra underlying the
// temporal multidimensional model of Body et al. (ICDE 2003).
//
// Time is discrete at month granularity, matching the paper's prototype
// where member versions carry valid times such as [01/2001, 12/2002] or
// [01/2003, Now]. An Instant counts months since year 0; the special
// value Now marks an interval that is still valid ("until changed").
//
// Intervals are closed on both ends: [ti, tf] contains both ti and tf.
// The Exclude evolution operator of the paper sets the end of a version
// to tf-1, which is well defined on this discrete axis.
package temporal

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Instant is a point on the discrete time axis, counted in months since
// January of year 0. Using months matches the granularity of the paper's
// prototype; coarser granularities (years) are expressible as January
// instants via Year.
type Instant int64

// Now is the open upper bound of a still-valid interval. It compares
// greater than every concrete instant.
const Now Instant = math.MaxInt64

// Origin is the smallest representable instant, usable as an unbounded
// lower bound in queries.
const Origin Instant = math.MinInt64

// YM returns the instant for the given year and month (1-12).
func YM(year, month int) Instant {
	return Instant(int64(year)*12 + int64(month-1))
}

// Year returns the instant for January of the given year.
func Year(year int) Instant { return YM(year, 1) }

// EndOfYear returns the instant for December of the given year.
func EndOfYear(year int) Instant { return YM(year, 12) }

// YearOf reports the calendar year containing the instant.
// It panics for the sentinel values Now and Origin, which belong to no year.
func (i Instant) YearOf() int {
	if i == Now || i == Origin {
		panic("temporal: YearOf on sentinel instant")
	}
	y := int64(i) / 12
	if int64(i)%12 < 0 {
		y--
	}
	return int(y)
}

// MonthOf reports the month (1-12) of the instant.
// It panics for the sentinel values Now and Origin.
func (i Instant) MonthOf() int {
	if i == Now || i == Origin {
		panic("temporal: MonthOf on sentinel instant")
	}
	m := int64(i) % 12
	if m < 0 {
		m += 12
	}
	return int(m) + 1
}

// Next returns the following instant. Now has no successor and is
// returned unchanged.
func (i Instant) Next() Instant {
	if i == Now {
		return Now
	}
	return i + 1
}

// Prev returns the preceding instant. Origin has no predecessor and is
// returned unchanged; Now-1 is not meaningful and Now is returned
// unchanged as well (an interval ending "now" stays open).
func (i Instant) Prev() Instant {
	if i == Origin || i == Now {
		return i
	}
	return i - 1
}

// Before reports whether i is strictly before j.
func (i Instant) Before(j Instant) bool { return i < j }

// After reports whether i is strictly after j.
func (i Instant) After(j Instant) bool { return i > j }

// Min returns the earlier of two instants.
func Min(a, b Instant) Instant {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of two instants.
func Max(a, b Instant) Instant {
	if a > b {
		return a
	}
	return b
}

// String renders the instant as "MM/YYYY" in the style of the paper
// ("01/2001"), with the sentinels rendered as "Now" and "-inf".
func (i Instant) String() string {
	var b [24]byte
	return string(i.Append(b[:0]))
}

// Append appends String's form of the instant to b: the month in two
// digits, then the year zero-padded to four characters, a minus sign
// included (fmt's "%02d/%04d").
func (i Instant) Append(b []byte) []byte {
	switch i {
	case Now:
		return append(b, "Now"...)
	case Origin:
		return append(b, "-inf"...)
	}
	m, y := i.MonthOf(), int64(i.YearOf())
	b = append(b, byte('0'+m/10), byte('0'+m%10), '/')
	width := 4
	if y < 0 {
		b, y, width = append(b, '-'), -y, 3
	}
	digits := 1
	for p := int64(10); p <= y && digits < width; p *= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, y, 10)
}

// ParseInstant parses the textual forms produced by String: "MM/YYYY",
// a bare year "YYYY" (meaning January), or "Now".
func ParseInstant(s string) (Instant, error) {
	s = strings.TrimSpace(s)
	switch strings.ToLower(s) {
	case "now":
		return Now, nil
	case "-inf":
		return Origin, nil
	}
	if mm, yyyy, ok := strings.Cut(s, "/"); ok {
		m, err := strconv.Atoi(mm)
		if err != nil || m < 1 || m > 12 {
			return 0, fmt.Errorf("temporal: invalid month in %q", s)
		}
		y, err := strconv.Atoi(yyyy)
		if err != nil {
			return 0, fmt.Errorf("temporal: invalid year in %q", s)
		}
		return YM(y, m), nil
	}
	y, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("temporal: cannot parse instant %q", s)
	}
	return Year(y), nil
}
