package temporal

import (
	"cmp"
	"fmt"
	"slices"
)

// Interval is a closed valid-time interval [Start, End]. An interval that
// is still valid has End == Now. The zero Interval is empty.
type Interval struct {
	Start, End Instant
}

// Between returns the closed interval [start, end].
func Between(start, end Instant) Interval { return Interval{start, end} }

// Since returns the still-open interval [start, Now].
func Since(start Instant) Interval { return Interval{start, Now} }

// Always is the interval covering the whole time axis.
var Always = Interval{Origin, Now}

// Empty reports whether the interval contains no instant (Start > End).
func (iv Interval) Empty() bool { return iv.Start > iv.End }

// Contains reports whether t lies inside the interval.
func (iv Interval) Contains(t Instant) bool { return iv.Start <= t && t <= iv.End }

// ContainsInterval reports whether other lies entirely inside iv.
// The empty interval is contained in everything.
func (iv Interval) ContainsInterval(other Interval) bool {
	if other.Empty() {
		return true
	}
	return iv.Start <= other.Start && other.End <= iv.End
}

// Overlaps reports whether the two intervals share at least one instant.
func (iv Interval) Overlaps(other Interval) bool {
	return !iv.Intersect(other).Empty()
}

// Intersect returns the common part of two intervals (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	return Interval{Max(iv.Start, other.Start), Min(iv.End, other.End)}
}

// Hull returns the smallest interval covering both operands. Empty
// operands are ignored; the hull of two empty intervals is empty.
func (iv Interval) Hull(other Interval) Interval {
	if iv.Empty() {
		return other
	}
	if other.Empty() {
		return iv
	}
	return Interval{Min(iv.Start, other.Start), Max(iv.End, other.End)}
}

// Adjacent reports whether the intervals touch without overlapping, that
// is one begins exactly one instant after the other ends.
func (iv Interval) Adjacent(other Interval) bool {
	if iv.Empty() || other.Empty() {
		return false
	}
	return (iv.End != Now && iv.End.Next() == other.Start) ||
		(other.End != Now && other.End.Next() == iv.Start)
}

// Equal reports whether two intervals denote the same set of instants.
// All empty intervals are equal.
func (iv Interval) Equal(other Interval) bool {
	if iv.Empty() || other.Empty() {
		return iv.Empty() && other.Empty()
	}
	return iv.Start == other.Start && iv.End == other.End
}

// Duration reports the number of instants in the interval. It returns -1
// for unbounded intervals (End == Now or Start == Origin).
func (iv Interval) Duration() int64 {
	if iv.Empty() {
		return 0
	}
	if iv.End == Now || iv.Start == Origin {
		return -1
	}
	return int64(iv.End-iv.Start) + 1
}

// String renders the interval in the paper's notation "[01/2001 ; Now]".
func (iv Interval) String() string {
	if iv.Empty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%s ; %s]", iv.Start, iv.End)
}

// Partition slices the hull of the given intervals into the coarsest set
// of elementary intervals such that every input interval is a union of
// elementary intervals. This is the construction behind Definition 9 of
// the paper: structure versions are "the intersections of the valid time
// intervals of all Member Versions and Temporal Relationships".
//
// The returned intervals are sorted, pairwise disjoint, and cover exactly
// the union of the inputs. Empty inputs are ignored.
func Partition(intervals []Interval) []Interval {
	// A start opens coverage at its instant; a concrete end closes it at
	// the instant after. Both kinds of instant are cut points, and
	// coverage is constant between cuts.
	type event struct {
		at    Instant
		delta int
	}
	events := make([]event, 0, 2*len(intervals))
	for _, iv := range intervals {
		if iv.Empty() {
			continue
		}
		events = append(events, event{iv.Start, +1})
		if iv.End != Now {
			events = append(events, event{iv.End.Next(), -1})
		}
	}
	slices.SortFunc(events, func(a, b event) int { return cmp.Compare(a.at, b.at) })

	// One sweep: the elementary interval opening at a cut is kept when
	// at least one input covers it.
	var out []Interval
	active := 0
	for i := 0; i < len(events); {
		c := events[i].at
		for ; i < len(events) && events[i].at == c; i++ {
			active += events[i].delta
		}
		if active == 0 {
			continue
		}
		end := Now
		if i < len(events) {
			end = events[i].at.Prev()
		}
		out = append(out, Interval{c, end})
	}
	return out
}
