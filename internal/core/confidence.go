// Package core implements the temporal multidimensional model of
// Body, Miquel, Bédard & Tchounikine, "Handling Evolutions in
// Multidimensional Structures" (ICDE 2003).
//
// The model (Definitions 1-12 of the paper) consists of:
//
//   - Member Versions: time-sliced states of dimension members (Def. 1).
//   - Temporal Relationships: hierarchy links with valid time (Def. 2).
//   - Temporal Dimensions: time-indexed rollup DAGs (Def. 3) whose levels
//     are derived from the instances (Def. 4).
//   - A Temporally Consistent Fact Table mapping leaf member versions and
//     time to measure values (Def. 5).
//   - Confidence Factors describing data reliability, combined by a
//     designer-supplied algebra (Def. 6).
//   - Mapping Relationships carrying per-measure mapping functions across
//     member transitions, with forward and reverse directions (Def. 7).
//   - The Temporal Multidimensional Schema tying it together (Def. 8).
//   - Structure Versions inferred from the valid-time endpoints (Def. 9).
//   - Temporal Modes of Presentation: temporally consistent, or mapped
//     into one structure version (Def. 10).
//   - The MultiVersion Fact Table materializing data in every mode with
//     confidence factors (Def. 11) and mode-aware aggregation (Def. 12).
package core

import "fmt"

// Confidence is a qualitative confidence factor describing the
// reliability of a value (Definition 6). The four values follow
// Example 5 of the paper; the prototype's integer codes from §5.2 are
// available through PrototypeCode.
type Confidence uint8

const (
	// SourceData (sd) marks temporally consistent source values.
	SourceData Confidence = iota
	// ExactMapping (em) marks values mapped with an exact function.
	ExactMapping
	// ApproxMapping (am) marks values mapped with an approximation.
	ApproxMapping
	// UnknownMapping (uk) marks values whose mapping is unknown.
	UnknownMapping

	numConfidence = 4
)

// String returns the paper's two-letter code for the confidence factor.
func (c Confidence) String() string {
	switch c {
	case SourceData:
		return "sd"
	case ExactMapping:
		return "em"
	case ApproxMapping:
		return "am"
	case UnknownMapping:
		return "uk"
	}
	return fmt.Sprintf("Confidence(%d)", uint8(c))
}

// PrototypeCode returns the integer coding used by the paper's prototype
// (§5.2): 3 for source data, 2 for exact, 1 for approximated, 4 for
// unknown mapping.
func (c Confidence) PrototypeCode() int {
	switch c {
	case SourceData:
		return 3
	case ExactMapping:
		return 2
	case ApproxMapping:
		return 1
	case UnknownMapping:
		return 4
	}
	return 0
}

// ConfidenceFromPrototypeCode is the inverse of PrototypeCode.
func ConfidenceFromPrototypeCode(code int) (Confidence, error) {
	switch code {
	case 3:
		return SourceData, nil
	case 2:
		return ExactMapping, nil
	case 1:
		return ApproxMapping, nil
	case 4:
		return UnknownMapping, nil
	}
	return 0, fmt.Errorf("core: unknown prototype confidence code %d", code)
}

// ParseConfidence parses the two-letter codes sd, em, am, uk.
func ParseConfidence(s string) (Confidence, error) {
	switch s {
	case "sd":
		return SourceData, nil
	case "em":
		return ExactMapping, nil
	case "am":
		return ApproxMapping, nil
	case "uk":
		return UnknownMapping, nil
	}
	return 0, fmt.Errorf("core: unknown confidence code %q", s)
}

// ConfidenceAlgebra is the aggregate function ⊗cf of Definition 6: it
// combines the confidence factors of values that are aggregated together
// (or of mapping steps that are composed). The paper lets the designer
// define it either as a truth table (qualitative factors) or as a
// function (quantitative factors). Either way ⊗cf is a function of its
// two operands: Combine must be pure, its result depending on a and b
// alone, because a query's scan tabulates it over the four factors once
// and folds from that table.
type ConfidenceAlgebra interface {
	// Combine merges two confidence factors: a is what is combined so far
	// (a cell's fold, a mapping path), b the factor added to it.
	Combine(a, b Confidence) Confidence
	// Name identifies the algebra in metadata.
	Name() string
}

// TruthTable is a qualitative confidence algebra given extensionally, as
// in Example 5 of the paper. It is indexed by the two operand values.
type TruthTable struct {
	Table [numConfidence][numConfidence]Confidence
	Label string
}

// Combine looks the pair up in the table. Out-of-range operands combine
// to UnknownMapping.
func (t *TruthTable) Combine(a, b Confidence) Confidence {
	if a >= numConfidence || b >= numConfidence {
		return UnknownMapping
	}
	return t.Table[a][b]
}

// Name returns the table's label.
func (t *TruthTable) Name() string { return t.Label }

// PaperAlgebra returns the truth table of Example 5:
//
//	⊗cf | sd  em  am  uk
//	 sd | sd  em  am  uk
//	 em | em  em  am  uk
//	 am | am  am  am  uk
//	 uk | uk  uk  uk  uk
//
// It is an idempotent commutative monoid with identity sd and absorbing
// element uk (least-reliable-wins).
func PaperAlgebra() ConfidenceAlgebra {
	sd, em, am, uk := SourceData, ExactMapping, ApproxMapping, UnknownMapping
	return &TruthTable{
		Label: "paper-example-5",
		Table: [numConfidence][numConfidence]Confidence{
			{sd, em, am, uk},
			{em, em, am, uk},
			{am, am, am, uk},
			{uk, uk, uk, uk},
		},
	}
}

// QuantitativeAlgebra is a confidence algebra defined by a function on a
// numeric reliability scale, the quantitative alternative mentioned in
// Definition 6. Each qualitative factor is assigned a reliability in
// [0,1]; combination multiplies reliabilities and maps the product back
// to the nearest factor, so long mapping chains degrade gracefully.
type QuantitativeAlgebra struct {
	// Reliability assigns a numeric reliability to each factor. The
	// defaults (1, 0.9, 0.5, 0) are used for unset entries.
	Reliability [numConfidence]float64
}

// NewQuantitativeAlgebra returns a quantitative algebra with the default
// reliability assignment sd=1, em=0.9, am=0.5, uk=0.
func NewQuantitativeAlgebra() *QuantitativeAlgebra {
	return &QuantitativeAlgebra{Reliability: [numConfidence]float64{1, 0.9, 0.5, 0}}
}

// Combine multiplies the operand reliabilities and classifies the result.
func (q *QuantitativeAlgebra) Combine(a, b Confidence) Confidence {
	if a >= numConfidence || b >= numConfidence {
		return UnknownMapping
	}
	p := q.Reliability[a] * q.Reliability[b]
	// Classify against the thresholds between the configured levels.
	best, bestDist := UnknownMapping, 2.0
	for c := SourceData; c < numConfidence; c++ {
		d := q.Reliability[c] - p
		if d < 0 {
			d = -d
		}
		// Prefer the less reliable class on ties so combination never
		// increases confidence.
		if d < bestDist || (d == bestDist && c > best) {
			best, bestDist = c, d
		}
	}
	return best
}

// Name identifies the algebra.
func (q *QuantitativeAlgebra) Name() string { return "quantitative" }
