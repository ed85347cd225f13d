package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/obs"
	"mvolap/internal/temporal"
)

// A Mutation is one write: an evolution script, a fact batch or a
// retract batch, named by the WAL record type that logs it
// (RecordEvolve, RecordFacts, RecordRetract). The leader decodes one
// from a request body (ParseMutation), crash recovery and followers
// decode one from a WAL record (decodeMutation), both through the same
// parsers; every one of them then goes through commit, so a state that
// was served live, one that was recovered and one that was replicated
// are results of the same code.
type Mutation struct {
	kind    string
	script  []byte // evolve: the script as the client sent it, which is what is logged
	ops     []evolution.Op
	facts   []FactRecord
	retract []RetractRecord
}

// ParseMutation decodes the body of a write request of the given kind
// for a schema with the given measure count. A batch that holds nothing
// is refused here, so it is never applied, logged or swapped in.
func ParseMutation(kind string, body []byte, measures int) (*Mutation, error) {
	m, err := parseMutation(kind, body, measures)
	if err == nil && m.Len() == 0 {
		// Only a script gets this far: the batch parsers refuse [].
		return nil, errors.New("evolution script is empty")
	}
	return m, err
}

// parseMutation is ParseMutation without the empty-script refusal: a
// log written before that refusal existed may hold such a record, and
// it has to replay.
func parseMutation(kind string, body []byte, measures int) (*Mutation, error) {
	m := &Mutation{kind: kind}
	var err error
	switch kind {
	case RecordEvolve:
		m.script = body
		m.ops, err = evolution.ParseScript(bytes.NewReader(body), measures)
	case RecordFacts:
		m.facts, err = ParseFactBatch(body)
	case RecordRetract:
		m.retract, err = ParseRetractBatch(body)
	default:
		err = fmt.Errorf("unknown record type %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// decodeMutation decodes a WAL record's payload. An evolve record holds
// its script as a JSON string; the batch records hold the request's own
// JSON form.
func decodeMutation(rec walRecord, measures int) (*Mutation, error) {
	body := []byte(rec.Data)
	if rec.Type == RecordEvolve {
		var script string
		if err := json.Unmarshal(rec.Data, &script); err != nil {
			return nil, fmt.Errorf("bad evolve payload: %w", err)
		}
		body = []byte(script)
	}
	return parseMutation(rec.Type, body, measures)
}

// Kind returns the mutation's record type.
func (m *Mutation) Kind() string { return m.kind }

// Len returns the number of elements in the batch: operators, facts or
// retractions.
func (m *Mutation) Len() int { return len(m.ops) + len(m.facts) + len(m.retract) }

// A BatchError reports the element of a mutation that did not apply.
// The elements before it applied to the clone, which the caller
// discards: a refused batch changes nothing.
type BatchError struct {
	// Index is the zero-based position of the failing element.
	Index int
	// Op is the Table 11 description of the failing operator; empty for
	// fact and retract batches.
	Op string
	// Err carries the whole message, position included.
	Err error
}

func (e *BatchError) Error() string { return e.Err.Error() }
func (e *BatchError) Unwrap() error { return e.Err }

// Apply applies the batch to clone, whose applier is ap; what it
// changed is clone.Delta(). A failure is a *BatchError and leaves clone
// partially mutated.
func (m *Mutation) Apply(clone *core.Schema, ap *evolution.Applier) error {
	switch m.kind {
	case RecordEvolve:
		if err := ap.Apply(m.ops...); err != nil {
			be := &BatchError{Err: err}
			var ae *evolution.ApplyError
			if errors.As(err, &ae) {
				be.Index, be.Op = ae.Index, ae.Op
			}
			return be
		}
	case RecordFacts:
		var coords core.Coords // one buffer for the batch: InsertFact keeps none
		for i, fr := range m.facts {
			var err error
			if coords, err = insertFact(clone, fr, coords); err != nil {
				return &BatchError{Index: i, Err: fmt.Errorf("fact %d: %w", i, err)}
			}
		}
	default:
		for i, rr := range m.retract {
			if _, err := ApplyRetract(clone, rr); err != nil {
				return &BatchError{Index: i, Err: fmt.Errorf("retract %d: %w", i, err)}
			}
		}
	}
	return nil
}

// appendTo logs the mutation.
func (m *Mutation) appendTo(st *Store) (seq uint64, snapshotDue bool, err error) {
	switch m.kind {
	case RecordEvolve:
		return st.AppendEvolve(m.script)
	case RecordFacts:
		return st.AppendFactBatch(m.facts)
	default:
		return st.AppendRetractBatch(m.retract)
	}
}

// ApplyFact inserts one FactRecord into the schema, parsing its
// instant and coordinates.
func ApplyFact(s *core.Schema, fr FactRecord) error {
	_, err := insertFact(s, fr, nil)
	return err
}

// insertFact is ApplyFact with the coordinates parsed into buf, which
// it returns for the next record.
func insertFact(s *core.Schema, fr FactRecord, buf core.Coords) (core.Coords, error) {
	at, err := temporal.ParseInstant(fr.Time)
	if err != nil {
		return buf, err
	}
	buf = buf[:0]
	for _, c := range fr.Coords {
		buf = append(buf, core.MVID(c))
	}
	return buf, s.InsertFact(buf, at, fr.Values...)
}

// ApplyRetract removes one RetractRecord's tuple from the schema,
// parsing its instant and coordinates, and returns the old tuple.
func ApplyRetract(s *core.Schema, rr RetractRecord) (*core.Fact, error) {
	at, err := temporal.ParseInstant(rr.Time)
	if err != nil {
		return nil, err
	}
	coords := make(core.Coords, len(rr.Coords))
	for i, c := range rr.Coords {
		coords[i] = core.MVID(c)
	}
	return s.RetractFact(coords, at)
}

// BatchWindow returns the hull of the batch's fact instants and
// whether the batch was non-empty with every instant parseable.
//
// Deprecated: the fact table records the instants a batch writes; read
// core.Schema.Delta on the clone. BatchWindow stays for the benchmark
// module's serial replay and goes with it (ROADMAP item 2).
func BatchWindow(batch []FactRecord) (temporal.Interval, bool) {
	known := false
	var window temporal.Interval
	for _, fr := range batch {
		at, err := temporal.ParseInstant(fr.Time)
		if err != nil {
			return temporal.Interval{}, false
		}
		iv := temporal.Between(at, at)
		if !known {
			window, known = iv, true
		} else {
			window = window.Hull(iv)
		}
	}
	return window, known
}

// Committed is what commit made of a mutation.
type Committed struct {
	// Schema is the evolved clone, ready to be served, and Applier its
	// applier, carrying the evolution log.
	Schema  *core.Schema
	Applier *evolution.Applier
	// Delta is Schema.Delta(): what the mutation changed, for the caches
	// above.
	Delta core.Delta
	// Seq is the mutation's WAL sequence; 0 when nothing was logged.
	Seq uint64
	// SnapshotDue reports that the append made an automatic snapshot due.
	SnapshotDue bool
}

// Commit runs m against base and logs it: the leader's write. On a nil
// store nothing is logged (a server without durability). An error is a
// *BatchError when the batch did not apply, anything else when the
// append failed; either way nothing was logged and base is untouched.
func (st *Store) Commit(ctx context.Context, base *core.Schema, ap *evolution.Applier, m *Mutation) (Committed, error) {
	return commit(ctx, st, base, ap, m)
}

// commit is the write path, the one place a schema is cloned: clone
// base, rebind the applier, apply the batch, and append it to log (nil
// when replaying a record that is already logged, here or on the
// leader). The order makes acknowledged ⇔ recoverable ⇔ replicable:
// only a batch that applied whole is logged, and only a logged batch is
// returned for the caller to publish. base keeps serving throughout and
// is never mutated. Nothing is warmed: every mode presents the clone's
// fact store at query time, so the clone is ready to serve as applied.
// ctx carries the trace, not cancellation: past the append the mutation
// is durable and must be finished.
//
// Each stage that completes is one observation of
// mvolap_write_stage_seconds, traced or not; apply ends with the
// mvft_delta span a ?trace=1 answer shows: what the batch wrote to the
// fact table, and the key-index maintenance it paid.
func commit(ctx context.Context, log *Store, base *core.Schema, ap *evolution.Applier, m *Mutation) (Committed, error) {
	t := time.Now()
	clone := base.Clone()
	ap = ap.Rebind(clone)
	t = ObserveWriteStage(m.kind, "clone", t)

	if err := m.Apply(clone, ap); err != nil {
		return Committed{}, err
	}
	if m.kind == RecordEvolve {
		// The one derivation of the new generation's structure versions on
		// the write path (the first reader would pay it otherwise), under
		// its own span.
		clone.StructureVersionsContext(ctx)
	}
	// What the batch did to the fact table. The mode counts stay on the
	// span for its readers and are always 0: no mode has warm state.
	_, sp := obs.StartSpan(ctx, "mvft_delta")
	sealed, merged := clone.Facts().KeyIndexWork()
	sp.SetAttr("retained", 0)
	sp.SetAttr("evicted", 0)
	sp.SetAttr("delta_applies", 0)
	appended := 0
	if m.kind == RecordFacts {
		appended = clone.Facts().Len() - base.Facts().Len()
	}
	sp.SetAttr("delta_facts", appended)
	sp.SetAttr("sealed", sealed)
	sp.SetAttr("merged", merged)
	if m.kind == RecordRetract {
		sp.SetAttr("retracted_facts", m.Len())
		sp.SetAttr("modes_subtracted", 0)
	}
	sp.End()
	t = ObserveWriteStage(m.kind, "apply", t)

	c := Committed{Schema: clone, Applier: ap, Delta: clone.Delta()}
	if log != nil {
		// Write-ahead: the accepted batch must be durable (per the fsync
		// policy) before the clone becomes visible.
		var err error
		c.Seq, c.SnapshotDue, err = m.appendTo(log)
		if err != nil {
			return Committed{}, fmt.Errorf("wal append: %w", err)
		}
		ObserveWriteStage(m.kind, "wal", t)
	}
	return c, nil
}

// ObserveWriteStage records that a stage of a write of the given kind
// ran from start until now in mvolap_write_stage_seconds, and returns
// now, where the next stage starts. The server observes the stages
// around commit (decode, queue, publish, snapshot) through it, so a
// write's whole time is in one series.
func ObserveWriteStage(kind, stage string, start time.Time) time.Time {
	now := time.Now()
	metWriteStageSeconds.With(kind, stage).Observe(now.Sub(start).Seconds())
	return now
}
