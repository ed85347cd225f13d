package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mvolap/internal/temporal"
)

func TestCoordsKeyAndEqual(t *testing.T) {
	a := Coords{"x", "y"}
	b := Coords{"x", "y"}
	c := Coords{"x", "z"}
	if a.Key() != b.Key() || a.Key() == c.Key() {
		t.Error("Key not canonical")
	}
	if !a.Equal(b) || a.Equal(c) || a.Equal(Coords{"x"}) {
		t.Error("Equal wrong")
	}
	cl := a.Clone()
	cl[0] = "mut"
	if a[0] != "x" {
		t.Error("Clone must not share backing array")
	}
}

func TestFactTableInsertLookup(t *testing.T) {
	ft := NewFactTable(2)
	if err := ft.Insert(Coords{"a"}, y(2001), 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := ft.Insert(Coords{"a"}, y(2001), 5); err == nil {
		t.Error("arity mismatch must fail")
	}
	vals, ok := ft.Lookup(Coords{"a"}, y(2001))
	if !ok || vals[0] != 1 || vals[1] != 2 {
		t.Errorf("Lookup = %v, %v", vals, ok)
	}
	if _, ok := ft.Lookup(Coords{"a"}, y(2002)); ok {
		t.Error("missing fact must not be found")
	}
	// The table is a function: re-insert replaces.
	if err := ft.Insert(Coords{"a"}, y(2001), 9, 8); err != nil {
		t.Fatal(err)
	}
	vals, _ = ft.Lookup(Coords{"a"}, y(2001))
	if vals[0] != 9 || ft.Len() != 1 {
		t.Error("re-insert must replace in place")
	}
}

// TestIDsWithSeparatorBytesStayApart: an ID may hold any byte, 0x1f
// included. The cells (a␟b, c) and (a, b␟c) joined to the same bytes
// under the old 0x1f-separated key, so the second insert replaced the
// first; keys are now checked against the stored coordinates, and the
// fact table and every mode keep both.
func TestIDsWithSeparatorBytesStayApart(t *testing.T) {
	s := NewSchema("sep", Measure{Name: "Amount", Agg: Sum})
	for _, dim := range []struct {
		id  DimID
		ids []MVID
	}{{"A", []MVID{"a\x1fb", "a"}}, {"B", []MVID{"c", "b\x1fc"}}} {
		d := NewDimension(dim.id, string(dim.id))
		for _, id := range dim.ids {
			if err := d.AddVersion(&MemberVersion{ID: id, Valid: temporal.Since(y(2000))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.AddDimension(d); err != nil {
			t.Fatal(err)
		}
	}
	cells := []Coords{{"a\x1fb", "c"}, {"a", "b\x1fc"}}
	at := ym(2001, 1)
	for i, c := range cells {
		if err := s.InsertFact(c, at, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Facts().Len(); n != 2 {
		t.Fatalf("fact table holds %d facts, want 2", n)
	}
	modes := s.Modes()
	if len(modes) < 2 {
		t.Fatalf("schema has %d modes, want tcm and a version", len(modes))
	}
	for _, m := range modes {
		mt, err := s.MultiVersion().Mode(m)
		if err != nil {
			t.Fatal(err)
		}
		if mt.Len() != 2 {
			t.Fatalf("mode %s holds %d tuples, want 2", m, mt.Len())
		}
		for i, c := range cells {
			f, ok := mt.Lookup(c, at)
			if !ok || !f.Coords.Equal(c) || f.Values[0] != float64(i+1) {
				t.Fatalf("mode %s: Lookup(%q) = %v, %v; want value %d", m, c, f, ok, i+1)
			}
		}
	}
	for i, c := range cells {
		if v, ok := s.Facts().Lookup(c, at); !ok || v[0] != float64(i+1) {
			t.Fatalf("fact table: Lookup(%q) = %v, %v; want %d", c, v, ok, i+1)
		}
	}
}

func TestFactTableInsertCopiesCoords(t *testing.T) {
	ft := NewFactTable(1)
	coords := Coords{"a"}
	if err := ft.Insert(coords, y(2001), 1); err != nil {
		t.Fatal(err)
	}
	coords[0] = "changed"
	if _, ok := ft.Lookup(Coords{"a"}, y(2001)); !ok {
		t.Error("Insert must defensively copy coordinates")
	}
}

// TestFactTableFactsHasNoSpareCapacity: a caller's append to Facts()
// must copy, not land in the slot the table's next Insert writes — a
// slot that, with the list shared across generations, may be a clone's.
func TestFactTableFactsHasNoSpareCapacity(t *testing.T) {
	ft := NewFactTable(1)
	for i := 0; i < 3; i++ {
		if err := ft.Insert(Coords{MVID(fmt.Sprint(i))}, y(2001), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	mine := append(ft.Facts(), &Fact{Coords: Coords{"mine"}, Time: y(2001), Values: []float64{-1}})
	if err := ft.Insert(Coords{"next"}, y(2001), 9); err != nil {
		t.Fatal(err)
	}
	if got := mine[3].Coords[0]; got != "mine" {
		t.Errorf("the caller's appended fact was overwritten by %q", got)
	}
	if got := ft.Facts()[3].Coords[0]; got != "next" {
		t.Errorf("the table's fourth fact is %q, want next", got)
	}
}

func TestFactTableTimes(t *testing.T) {
	ft := NewFactTable(1)
	for _, yr := range []int{2003, 2001, 2002, 2001} {
		if err := ft.Insert(Coords{MVID(rune('a' + yr%10))}, y(yr), 1); err != nil {
			t.Fatal(err)
		}
	}
	times := ft.Times()
	if len(times) != 3 || times[0] != y(2001) || times[2] != y(2003) {
		t.Errorf("Times = %v", times)
	}
	span := ft.TimeSpan()
	if !span.Equal(temporal.Between(y(2001), y(2003))) {
		t.Errorf("TimeSpan = %v", span)
	}
	if !NewFactTable(1).TimeSpan().Empty() {
		t.Error("empty table span must be empty")
	}
}

// modelFact is one row of the naive fact-table model: a slice in
// insertion order, searched linearly.
type modelFact struct {
	coords Coords
	at     temporal.Instant
	value  float64
}

// tableLineage is a FactTable beside its naive model.
type tableLineage struct {
	ft    *FactTable
	model []modelFact
}

func (l *tableLineage) find(c Coords, at temporal.Instant) int {
	for i, f := range l.model {
		if f.at == at && f.coords.Equal(c) {
			return i
		}
	}
	return -1
}

func (l *tableLineage) fork() *tableLineage {
	return &tableLineage{ft: l.ft.Clone(), model: append([]modelFact(nil), l.model...)}
}

func (l *tableLineage) check(t *testing.T, label string) {
	t.Helper()
	facts := l.ft.Facts()
	if l.ft.Len() != len(l.model) || len(facts) != len(l.model) {
		t.Fatalf("%s: Len = %d, Facts has %d, model has %d", label, l.ft.Len(), len(facts), len(l.model))
	}
	for i, want := range l.model {
		got := facts[i]
		if !got.Coords.Equal(want.coords) || got.Time != want.at || got.Values[0] != want.value {
			t.Fatalf("%s: fact %d = %v@%v %v, model has %v@%v %v",
				label, i, got.Coords, got.Time, got.Values, want.coords, want.at, want.value)
		}
		if vals, ok := l.ft.Lookup(want.coords, want.at); !ok || vals[0] != want.value {
			t.Fatalf("%s: Lookup(%v@%v) = %v, %v; model has %v", label, want.coords, want.at, vals, ok, want.value)
		}
	}
}

// factOp is one write of a planned batch: an insert (new or
// replacing) or a retraction of the fact the model holds with value v.
type factOp struct {
	c       Coords
	at      temporal.Instant
	v       float64
	retract bool
}

// plan draws n writes over members × months against the lineage's
// model, applies them to the model and returns them for run, so the
// table side can run on another goroutine while the model stays on the
// test's.
func (l *tableLineage) plan(r *rand.Rand, members, months, step, n int) []factOp {
	ops := make([]factOp, n)
	for k := range ops {
		op := factOp{
			c:  Coords{MVID(fmt.Sprintf("m%d", r.Intn(members)))},
			at: temporal.Instant(r.Intn(months)),
			v:  float64(step*100 + k),
		}
		switch i := l.find(op.c, op.at); {
		case i >= 0 && r.Intn(2) == 0:
			op.v, op.retract = l.model[i].value, true
			l.model = append(l.model[:i], l.model[i+1:]...)
		case i >= 0:
			l.model[i].value = op.v
		default:
			l.model = append(l.model, modelFact{coords: op.c, at: op.at, value: op.v})
		}
		ops[k] = op
	}
	return ops
}

// run applies planned writes to the table.
func (l *tableLineage) run(ops []factOp) error {
	for _, op := range ops {
		if !op.retract {
			if err := l.ft.Insert(op.c, op.at, op.v); err != nil {
				return err
			}
			continue
		}
		if old, ok := l.ft.Retract(op.c, op.at); !ok || old.Values[0] != op.v {
			return fmt.Errorf("Retract(%v@%v) = %v, %v; model had %v", op.c, op.at, old, ok, op.v)
		}
	}
	return nil
}

// TestPropertyFactTableMatchesModel drives forking FactTable lineages
// through random Insert / replacing Insert / Retract / Clone and holds
// each against a naive slice model: Facts() order, Len, Lookup — and,
// because every lineage is checked against its own model after writes
// to the others, that a replace or retract on one side of a clone never
// shows on the other. Beside single writes it plays the cases the
// shared pointer list must survive: two siblings racing for the same
// slots on two goroutines, a sibling that writes and is discarded (a
// refused batch's clone), the base appending after a Clone, and a
// retract and a replacing insert below the shared length. Runs long
// enough for the key index to seal, merge and flatten under the table.
func TestPropertyFactTableMatchesModel(t *testing.T) {
	const (
		members  = 40
		months   = 60
		steps    = 12000
		maxForks = 5
		batch    = 8
	)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			lineages := []*tableLineage{{ft: NewFactTable(1)}}
			seals := metKeyIndexSeals.Value()
			copies := map[string]int64{}
			for _, reason := range []string{"retract", "replace", "claim_lost"} {
				copies[reason] = metFactListCopies.With(reason).Value()
			}
			for step := 0; step < steps; step++ {
				l := lineages[r.Intn(len(lineages))]
				c := Coords{MVID(fmt.Sprintf("m%d", r.Intn(members)))}
				at := temporal.Instant(r.Intn(months))
				i := l.find(c, at)
				switch op := r.Intn(100); {
				case op < 2:
					lineages = adopt(r, lineages, l, l.fork(), maxForks)
				case op < 3:
					// Siblings racing for one slot: both stay.
					sibs := []*tableLineage{l.fork(), l.fork()}
					ops := [][]factOp{
						sibs[0].plan(r, members, months, step, batch),
						sibs[1].plan(r, members, months, step, batch),
					}
					var wg sync.WaitGroup
					for k, s := range sibs {
						wg.Add(1)
						go func() {
							defer wg.Done()
							if err := s.run(ops[k]); err != nil {
								t.Errorf("step %d sibling %d: %v", step, k, err)
							}
						}()
					}
					wg.Wait()
					for _, s := range sibs {
						lineages = adopt(r, lineages, l, s, maxForks)
					}
				case op < 4:
					// A sibling writes and is dropped, as a refused batch's
					// clone is; l must not see any of it.
					d := l.fork()
					if err := d.run(d.plan(r, members, months, step, batch)); err != nil {
						t.Fatalf("step %d discarded sibling: %v", step, err)
					}
				case op < 5:
					// The base appends after Clone, then the clone does.
					f := l.fork()
					for _, w := range []*tableLineage{l, f} {
						if err := w.run(w.plan(r, members, months, step, batch)); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
					lineages = adopt(r, lineages, l, f, maxForks)
				case op < 6 && len(l.model) >= 2:
					// A replacing insert on one fork and a retract on another,
					// each below the length the fork shares with l.
					f, g := l.fork(), l.fork()
					replace := []factOp{{c: f.model[1].coords, at: f.model[1].at, v: float64(step)}}
					f.model[1].value = float64(step)
					retract := []factOp{{c: g.model[0].coords, at: g.model[0].at, v: g.model[0].value, retract: true}}
					g.model = g.model[1:]
					if err := f.run(replace); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if err := g.run(retract); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					lineages = adopt(r, lineages, l, f, maxForks)
					lineages = adopt(r, lineages, l, g, maxForks)
				case op < 30 && i >= 0:
					old, ok := l.ft.Retract(c, at)
					if !ok || old.Values[0] != l.model[i].value {
						t.Fatalf("step %d: Retract(%v@%v) = %v, %v; model has %v", step, c, at, old, ok, l.model[i].value)
					}
					l.model = append(l.model[:i], l.model[i+1:]...)
				case i >= 0:
					v := float64(step)
					if err := l.ft.Insert(c, at, v); err != nil {
						t.Fatal(err)
					}
					l.model[i].value = v
				default:
					if _, ok := l.ft.Retract(c, at); ok {
						t.Fatalf("step %d: retracted %v@%v, which the model does not hold", step, c, at)
					}
					v := float64(step)
					if err := l.ft.Insert(c, at, v); err != nil {
						t.Fatal(err)
					}
					l.model = append(l.model, modelFact{coords: c, at: at, value: v})
				}
				if step%500 == 0 {
					for j, l := range lineages {
						l.check(t, fmt.Sprintf("step %d lineage %d", step, j))
					}
				}
			}
			for j, l := range lineages {
				l.check(t, fmt.Sprintf("end lineage %d", j))
			}
			if metKeyIndexSeals.Value() == seals {
				t.Fatal("no lineage ever sealed its key index; the run is too short to test the layers")
			}
			for reason, before := range copies {
				if metFactListCopies.With(reason).Value() == before {
					t.Errorf("no fact-list copy for reason %s; the run does not reach that path", reason)
				}
			}
		})
	}
}
