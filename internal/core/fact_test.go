package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mvolap/internal/temporal"
)

func TestCoordsKeyAndEqual(t *testing.T) {
	a := Coords{"x", "y"}
	b := Coords{"x", "y"}
	c := Coords{"x", "z"}
	if !a.Equal(b) || a.Equal(c) || a.Equal(Coords{"x"}) {
		t.Error("Equal wrong")
	}
	cl := a.Clone()
	cl[0] = "mut"
	if a[0] != "x" {
		t.Error("Clone must not share backing array")
	}
}

// factSchema returns a schema over one dimension "D" whose members, the
// given IDs, are valid at every instant on level "Member", with the
// given number of Sum measures: the store keys member version ordinals,
// so a fact table always belongs to a schema.
func factSchema(t testing.TB, measures int, ids ...MVID) *Schema {
	t.Helper()
	ms := make([]Measure, measures)
	for k := range ms {
		ms[k] = Measure{Name: fmt.Sprintf("m%d", k), Agg: Sum}
	}
	s := NewSchema("facts", ms...)
	d := NewDimension("D", "D")
	for _, id := range ids {
		if err := d.AddVersion(&MemberVersion{ID: id, Level: "Member", Valid: temporal.Since(temporal.Origin)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddDimension(d); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFactTableInsertLookup(t *testing.T) {
	ft := factSchema(t, 2, "a").Facts()
	if err := ft.Insert(Coords{"a"}, y(2001), 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := ft.Insert(Coords{"a"}, y(2001), 5); err == nil {
		t.Error("arity mismatch must fail")
	}
	if err := ft.Insert(Coords{"b"}, y(2001), 5, 6); err == nil {
		t.Error("a coordinate naming no member version must fail")
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

// TestAddDimensionAfterFactsFails: every fact holds one coordinate per
// dimension, so a dimension added once the table holds facts is
// refused instead of leaving them a coordinate short.
func TestAddDimensionAfterFactsFails(t *testing.T) {
	s := factSchema(t, 1, "a")
	s.MustInsertFact(Coords{"a"}, y(2001), 1)
	if err := s.AddDimension(NewDimension("E", "E")); err == nil {
		t.Fatal("a dimension added after facts was accepted")
	}
	if v, ok := s.Facts().Lookup(Coords{"a"}, y(2001)); !ok || v[0] != 1 {
		t.Fatalf("the refused dimension lost the fact: %v, %v", v, ok)
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
		facts, _ := presented(t, s, m)
		if len(facts) != 2 {
			t.Fatalf("mode %s holds %d tuples, want 2", m, len(facts))
		}
		for i, c := range cells {
			f, ok := presentedAt(facts, c, at)
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
	ft := factSchema(t, 1, "a", "changed").Facts()
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
// must copy, not land in a slot the view shares with anything else.
func TestFactTableFactsHasNoSpareCapacity(t *testing.T) {
	ft := factSchema(t, 1, "0", "1", "2", "next").Facts()
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

// modelFact is one row of the naive fact-table model: a slice in
// insertion order, searched linearly.
type modelFact struct {
	coords Coords
	at     temporal.Instant
	value  float64
}

// tableLineage is a schema's fact table beside its naive model, with
// counters of the store's copy-on-write paths its writes took.
type tableLineage struct {
	s     *Schema
	model []modelFact
	paths *storePaths
}

// storePaths counts the writes that reached each copy-on-write path of
// the store; siblings on two goroutines count into one.
type storePaths struct {
	replacePrivatized, retractPrivatized, claimLost atomic.Int64
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
	return &tableLineage{s: l.s.Clone(), model: append([]modelFact(nil), l.model...), paths: l.paths}
}

// insert and retract write through the fact table, counting the path
// the write takes: into a slot of a shard another generation reads
// (privatized first), or an append whose tail slot a sibling claimed.
func (l *tableLineage) insert(c Coords, at temporal.Instant, v float64) error {
	ft := l.s.Facts()
	if pos, ok := ft.locate(c, at); ok {
		if l.sharedSlot(pos) {
			l.paths.replacePrivatized.Add(1)
		}
	} else if n := len(ft.shards); n > 0 {
		if tail := ft.shards[n-1]; tail.n < MappedShardSize && tail.claim.Load() != int32(tail.n) {
			l.paths.claimLost.Add(1)
		}
	}
	return ft.Insert(c, at, v)
}

func (l *tableLineage) retract(c Coords, at temporal.Instant) (*Fact, bool) {
	ft := l.s.Facts()
	if pos, ok := ft.locate(c, at); ok && l.sharedSlot(pos) {
		l.paths.retractPrivatized.Add(1)
	}
	return ft.Retract(c, at)
}

// sharedSlot reports whether another generation may read the slot at
// pos, so a write there privatizes its shard.
func (l *tableLineage) sharedSlot(pos int) bool {
	ft := l.s.Facts()
	sh := ft.shards[pos>>shardShift]
	return sh.epoch != ft.epoch || pos&shardMask < sh.sharedBelow
}

func (l *tableLineage) check(t *testing.T, label string) {
	t.Helper()
	ft := l.s.Facts()
	facts := ft.Facts()
	if ft.Len() != len(l.model) || len(facts) != len(l.model) {
		t.Fatalf("%s: Len = %d, Facts has %d, model has %d", label, ft.Len(), len(facts), len(l.model))
	}
	for i, want := range l.model {
		got := facts[i]
		if !got.Coords.Equal(want.coords) || got.Time != want.at || got.Values[0] != want.value {
			t.Fatalf("%s: fact %d = %v@%v %v, model has %v@%v %v",
				label, i, got.Coords, got.Time, got.Values, want.coords, want.at, want.value)
		}
		if vals, ok := ft.Lookup(want.coords, want.at); !ok || vals[0] != want.value {
			t.Fatalf("%s: Lookup(%v@%v) = %v, %v; model has %v", label, want.coords, want.at, vals, ok, want.value)
		}
	}
	// tcm presents the store as it is, and its answer at member × month
	// grain is the model, bit for bit.
	tcm, _ := presented(t, l.s, TCM())
	if len(tcm) != len(facts) {
		t.Fatalf("%s: tcm presents %d tuples, the store holds %d", label, len(tcm), len(facts))
	}
	for i, f := range tcm {
		if !f.Coords.Equal(facts[i].Coords) || f.Time != facts[i].Time || f.Values[0] != facts[i].Values[0] || f.CFs[0] != SourceData || f.Sources != 1 {
			t.Fatalf("%s: tcm tuple %d = %+v, store holds %+v", label, i, f, facts[i])
		}
	}
	res, err := l.s.Execute(Query{GroupBy: []GroupBy{{Dim: "D", Level: "Member"}}, Grain: GrainMonth, Mode: TCM()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != len(l.model) {
		t.Fatalf("%s: tcm answers %d cells, model has %d", label, res.Len(), len(l.model))
	}
	cells := make(map[string]float64, res.Len())
	for _, r := range res.Rows() {
		cells[string(r.GroupIDs[0])+"@"+r.TimeKey] = r.Values[0]
	}
	for _, want := range l.model {
		got, ok := cells[string(want.coords[0])+"@"+want.at.String()]
		if !ok || math.Float64bits(got) != math.Float64bits(want.value) {
			t.Fatalf("%s: tcm has %v, %v at %v@%v; model has %v", label, got, ok, want.coords, want.at, want.value)
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
			if err := l.insert(op.c, op.at, op.v); err != nil {
				return err
			}
			continue
		}
		if old, ok := l.retract(op.c, op.at); !ok || old.Values[0] != op.v {
			return fmt.Errorf("Retract(%v@%v) = %v, %v; model had %v", op.c, op.at, old, ok, op.v)
		}
	}
	return nil
}

// TestPropertyFactTableMatchesModel drives forking FactTable lineages
// through random Insert / replacing Insert / Retract / Clone and holds
// each against a naive slice model: Facts() order, Len, Lookup, tcm's
// answer at member × month grain — and, because every lineage is
// checked against its own model after writes to the others, that a
// replace or retract on one side of a clone never shows on the other.
// The store keys member version ordinals, so each lineage is a schema
// over one dimension of the 40 members. Beside single writes it plays
// the cases the shared shards must survive: two siblings racing for the
// same tail slots on two goroutines, a sibling that writes and is
// discarded (a refused batch's clone), the base appending after a
// Clone, and a retract and a replacing insert into shared shards. Runs
// long enough for the key index to seal, merge and flatten under the
// table, and must reach each copy-on-write path of the store.
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
			ids := make([]MVID, members)
			for k := range ids {
				ids[k] = MVID(fmt.Sprintf("m%d", k))
			}
			paths := &storePaths{}
			lineages := []*tableLineage{{s: factSchema(t, 1, ids...), paths: paths}}
			seals := metKeyIndexSeals.Value()
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
					// each into a shard the fork shares with l.
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
					old, ok := l.retract(c, at)
					if !ok || old.Values[0] != l.model[i].value {
						t.Fatalf("step %d: Retract(%v@%v) = %v, %v; model has %v", step, c, at, old, ok, l.model[i].value)
					}
					l.model = append(l.model[:i], l.model[i+1:]...)
				case i >= 0:
					v := float64(step)
					if err := l.insert(c, at, v); err != nil {
						t.Fatal(err)
					}
					l.model[i].value = v
				default:
					if _, ok := l.retract(c, at); ok {
						t.Fatalf("step %d: retracted %v@%v, which the model does not hold", step, c, at)
					}
					v := float64(step)
					if err := l.insert(c, at, v); err != nil {
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
			for path, n := range map[string]int64{
				"a replacing insert into a shared shard": paths.replacePrivatized.Load(),
				"a retract from a shared shard":          paths.retractPrivatized.Load(),
				"an append whose tail claim was lost":    paths.claimLost.Load(),
			} {
				if n == 0 {
					t.Errorf("no write took the path of %s; the run does not reach it", path)
				}
			}
		})
	}
}
