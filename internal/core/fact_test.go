package core

import (
	"fmt"
	"math/rand"
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

// TestPropertyFactTableMatchesModel drives forking FactTable lineages
// through random Insert / replacing Insert / Retract / Clone and holds
// each against a naive slice model: Facts() order, Len, Lookup — and,
// because every lineage is checked against its own model after writes
// to the others, that a replace or retract on one side of a clone never
// shows on the other. Runs long enough for the key index to seal, merge
// and flatten under the table.
func TestPropertyFactTableMatchesModel(t *testing.T) {
	const (
		members  = 40
		months   = 60
		steps    = 12000
		maxForks = 5
	)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			lineages := []*tableLineage{{ft: NewFactTable(1)}}
			seals := metKeyIndexSeals.Value()
			for step := 0; step < steps; step++ {
				l := lineages[r.Intn(len(lineages))]
				c := Coords{MVID(fmt.Sprintf("m%d", r.Intn(members)))}
				at := temporal.Instant(r.Intn(months))
				i := l.find(c, at)
				switch op := r.Intn(100); {
				case op < 2:
					lineages = adopt(r, lineages, l, l.fork(), maxForks)
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
		})
	}
}
