package evolution

import (
	"fmt"
	"strings"

	"mvolap/internal/core"
)

// LogEntry records one applied operator for the §5.2 evolution
// metadata: its sequence number, its Table 11 notation, and the member
// versions it touched. The JSON names are an on-disk format: the store
// writes the log into every snapshot's meta section as it stands.
type LogEntry struct {
	Seq         int         `json:"seq"`
	Description string      `json:"description"`
	Touched     []core.MVID `json:"touched,omitempty"`
}

// Applier applies evolution operators to a schema, keeping the
// evolution log. It never invalidates the schema itself: every mutator
// an operator can call already moves its dimension onto a new version
// chain, and a blanket invalidation here would sweep every dimension
// and rebuild every rollup table after each batch.
type Applier struct {
	schema *core.Schema
	log    []LogEntry
}

// NewApplier creates an applier bound to the schema.
func NewApplier(s *core.Schema) *Applier { return &Applier{schema: s} }

// NewApplierWithLog creates an applier bound to the schema that starts
// from a previously recorded log — used when restoring a warehouse from
// a snapshot, so the §5.2 evolution history survives restarts. The log
// is copied; subsequent entries continue its sequence numbering.
func NewApplierWithLog(s *core.Schema, log []LogEntry) *Applier {
	return &Applier{schema: s, log: append([]LogEntry(nil), log...)}
}

// ApplyError reports a failed operator within a batch: which operator
// failed, and how many operators before it were already applied to the
// schema. Callers that applied the batch to a shared schema can use it
// to tell clients exactly how far the schema mutated; callers that
// applied it to a disposable clone can discard the clone for an atomic
// failure.
type ApplyError struct {
	// Index is the zero-based position of the failing operator in the
	// batch; operators [0, Index) were applied.
	Index int
	// Applied is the number of operators successfully applied before
	// the failure (equal to Index: Apply stops at the first failure).
	Applied int
	// Op is the Table 11 description of the failing operator.
	Op  string
	Err error
}

// Error renders the failure with its position in the batch.
func (e *ApplyError) Error() string {
	return fmt.Sprintf("evolution: applying operator %d (%s) after %d applied: %v",
		e.Index+1, e.Op, e.Applied, e.Err)
}

// Unwrap exposes the underlying operator error.
func (e *ApplyError) Unwrap() error { return e.Err }

// Apply runs the operators in order, stopping at the first failure.
// Applied operators are logged; on error the schema may be left with a
// prefix of the batch applied (operators are not transactional, like
// the DDL of the paper's prototype platform). The returned error is an
// *ApplyError reporting the failing operator's index and how many
// operators were applied before it; apply to a core.Schema.Clone and
// swap on success when atomicity is required.
func (a *Applier) Apply(ops ...Op) error {
	for i, op := range ops {
		if err := op.Apply(a.schema); err != nil {
			return &ApplyError{Index: i, Applied: i, Op: op.Describe(), Err: err}
		}
		a.log = append(a.log, LogEntry{
			Seq:         len(a.log) + 1,
			Description: op.Describe(),
			Touched:     op.Touches(),
		})
	}
	return nil
}

// Rebind returns a new applier bound to s carrying this applier's log —
// used with Schema.Clone for copy-on-write evolution: the clone's
// applier keeps the full §5.2 evolution history. The log is shared, not
// copied, so a write costs its batch and not its history: entries are
// never changed once appended, and the clipped capacity makes the
// child's first append reallocate instead of writing past the parent's
// length.
func (a *Applier) Rebind(s *core.Schema) *Applier {
	return &Applier{schema: s, log: a.log[:len(a.log):len(a.log)]}
}

// Log returns the applied-operator log.
func (a *Applier) Log() []LogEntry { return a.log }

// History returns the textual descriptions of all logged operators that
// touched the given member version — the paper's "short textual
// description of the transformations that have affected a member".
func (a *Applier) History(id core.MVID) []string {
	var out []string
	for _, e := range a.log {
		for _, t := range e.Touched {
			if t == id {
				out = append(out, e.Description)
				break
			}
		}
	}
	return out
}

// Script renders the whole log as a readable evolution script.
func (a *Applier) Script() string {
	var b strings.Builder
	for _, e := range a.log {
		fmt.Fprintf(&b, "%3d. %s\n", e.Seq, e.Description)
	}
	return b.String()
}

// Describe renders a compiled operation (a sequence of basic operators)
// in the two-column style of Table 11.
func Describe(ops []Op) string {
	lines := make([]string, len(ops))
	for i, op := range ops {
		lines[i] = "- " + op.Describe()
	}
	return strings.Join(lines, "\n")
}
