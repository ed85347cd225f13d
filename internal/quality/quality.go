// Package quality implements the data-quality reporting of §5.2 of Body
// et al. (ICDE 2003): confidence-factor weighting, the global quality
// factor Q of a query result per temporal mode of presentation, and the
// cell colouring used to let the user "detect at a glance" mapped
// values. It executes nothing: ranking the modes by Q is the TQL
// QUALITY statement (internal/tql), the same SELECT asked once per mode
// through the result cache.
package quality

import (
	"fmt"

	"mvolap/internal/core"
)

// Weights is the user-pondered function pds() of §5.2, assigning each
// confidence factor a weight between 0 (weakest) and 10 (best).
type Weights [4]int

// DefaultWeights follows the natural reliability order of the paper's
// coding: source data best, unknown worst.
func DefaultWeights() Weights {
	w := Weights{}
	w[core.SourceData] = 10
	w[core.ExactMapping] = 8
	w[core.ApproxMapping] = 5
	w[core.UnknownMapping] = 0
	return w
}

// Validate checks the 0..10 range required by §5.2.
func (w Weights) Validate() error {
	for cf, v := range w {
		if v < 0 || v > 10 {
			return fmt.Errorf("quality: weight %d for %v outside [0,10]", v, core.Confidence(cf))
		}
	}
	return nil
}

// Of computes the global quality factor of a query result:
//
//	Q = (Σ_i Σ_j pds(fb(i,j))) / (Ni·Nj·10)
//
// where the sum runs over every value cell of the result (rows ×
// selected measures), read off the result's confidence factors. An
// empty result has quality 0.
func Of(res *core.Result, w Weights) float64 {
	if res == nil || res.Len() == 0 || len(res.MeasureNames) == 0 {
		return 0
	}
	sum := 0
	cells := 0
	for i := range res.Len() {
		for _, cf := range res.CFs(i) {
			if int(cf) < len(w) {
				sum += w[cf]
			}
			cells++
		}
	}
	return float64(sum) / (float64(cells) * 10)
}

// Color is the background colour a front end should give a cell to
// reflect its confidence (§5.2: "white for source data, green for exact
// mapping, yellow for approximated mapping and red for impossible
// cross-point").
type Color uint8

// The §5.2 colours.
const (
	White Color = iota
	Green
	Yellow
	Red
)

// String names the colour.
func (c Color) String() string {
	switch c {
	case White:
		return "white"
	case Green:
		return "green"
	case Yellow:
		return "yellow"
	case Red:
		return "red"
	}
	return fmt.Sprintf("Color(%d)", uint8(c))
}

// ANSI returns the ANSI escape prefix for terminal rendering ("" for
// white).
func (c Color) ANSI() string {
	switch c {
	case Green:
		return "\x1b[32m"
	case Yellow:
		return "\x1b[33m"
	case Red:
		return "\x1b[31m"
	}
	return ""
}

// CellColor maps a confidence factor to its §5.2 colour. Unknown
// mappings and impossible cross-points are red.
func CellColor(cf core.Confidence) Color {
	switch cf {
	case core.SourceData:
		return White
	case core.ExactMapping:
		return Green
	case core.ApproxMapping:
		return Yellow
	default:
		return Red
	}
}
