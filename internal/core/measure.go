package core

import (
	"fmt"
	"math"
)

// AggKind selects the aggregate function ⊕m of a measure (Definition 12).
type AggKind uint8

// Supported aggregate functions.
const (
	Sum AggKind = iota
	Count
	Min
	Max
	Avg
)

// String names the aggregate.
func (a AggKind) String() string {
	switch a {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	}
	return fmt.Sprintf("AggKind(%d)", uint8(a))
}

// ParseAggKind parses the SQL-style names accepted by String.
func ParseAggKind(s string) (AggKind, error) {
	switch s {
	case "SUM", "sum":
		return Sum, nil
	case "COUNT", "count":
		return Count, nil
	case "MIN", "min":
		return Min, nil
	case "MAX", "max":
		return Max, nil
	case "AVG", "avg":
		return Avg, nil
	}
	return 0, fmt.Errorf("core: unknown aggregate %q", s)
}

// Measure describes one measure of the fact table: a name and its
// aggregate function.
type Measure struct {
	Name string
	Agg  AggKind
}

// Accumulator incrementally computes one aggregate over float64 values,
// skipping NaN (the representation of values with unknown mapping).
type Accumulator struct {
	kind       AggKind
	sum        float64
	minV, maxV float64
	n          int
}

// NewAccumulator returns an empty accumulator for the aggregate kind.
func NewAccumulator(kind AggKind) *Accumulator {
	return &Accumulator{kind: kind, minV: math.Inf(1), maxV: math.Inf(-1)}
}

// Add folds a value into the aggregate. NaN values (unknown mappings)
// are ignored, matching the paper's treatment of unknown data: they
// poison the confidence factor, not the number.
func (a *Accumulator) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	a.n++
	a.sum += v
	if v < a.minV {
		a.minV = v
	}
	if v > a.maxV {
		a.maxV = v
	}
}

// N reports how many non-NaN values were added.
func (a *Accumulator) N() int { return a.n }

// Value returns the aggregate. An empty accumulator yields NaN, which
// renders as an unknown cell.
func (a *Accumulator) Value() float64 {
	return aggValue(a.kind, a.sum, a.minV, a.maxV, a.n)
}

// aggValue is the value of an aggregate of the given kind over n
// non-NaN values with the given sum, least and greatest: NaN when n is
// 0. It is Accumulator.Value over the parts, which the scan keeps as
// columns; a Sum, Count or Avg reads neither lo nor hi.
func aggValue(kind AggKind, sum, lo, hi float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	switch kind {
	case Sum:
		return sum
	case Count:
		return float64(n)
	case Min:
		return lo
	case Max:
		return hi
	case Avg:
		return sum / float64(n)
	}
	return math.NaN()
}
