package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mvolap/internal/temporal"
)

// TestCompactionKeepsFacts drives a lineage of a table of three shards
// through corrections, retractions and re-insertions of retracted keys
// until its tombstones pass half of the slots of its shards, more than
// once. After every write the table holds at most twice its facts, plus
// one shard, in slots. Each
// write that compacts is also run on an uncompacted clone, whose dead
// count is held off the threshold: the two hold the same facts in the
// same order, answer every Lookup alike and write the same snapshot
// bytes, and the compacted one holds no dead slot. Every published
// generation answers in tcm and every version mode bit for bit as a
// cold rebuild of its facts, inserted in store order, and every older
// generation, checked at the end, still reads the facts and answers it
// was published with.
func TestCompactionKeepsFacts(t *testing.T) {
	const n, batches, batch = 2*MappedShardSize + 300, 12, 2000
	members := []MVID{"Smith", "Brian"}
	key := func(i int) (Coords, temporal.Instant) {
		return Coords{members[i%2]}, ym(2001+(i/2)/12, 1+(i/2)%12)
	}
	type modelFact struct {
		key int
		v   float64
	}
	model := make([]modelFact, n)
	for i := range model {
		model[i] = modelFact{i, float64(i)}
	}
	var retracted []int
	r := rand.New(rand.NewSource(1))
	s := bigTCMSchema(t, n)

	rebuild := func() *Schema {
		cold := bigTCMSchema(t, 0)
		for _, f := range model {
			c, at := key(f.key)
			if err := cold.InsertFact(c, at, f.v); err != nil {
				t.Fatal(err)
			}
		}
		return cold
	}
	// uncompacted runs write on a clone of g whose dead count is held
	// below the threshold while it runs, so it keeps every dead slot.
	uncompacted := func(g *Schema, write func(*Schema)) *Schema {
		c := g.Clone()
		off := c.facts.n
		c.facts.dead -= off
		write(c)
		c.facts.dead += off
		return c
	}
	type generation struct {
		s       *Schema
		facts   string
		answers []*Result
	}
	var published []generation
	compactions, compared := metFactCompactions.Value(), 0
	for b := 0; b < batches; b++ {
		s = s.Clone()
		ft := s.facts
		for w := 0; w < batch; w++ {
			// A reinsertion appends a retracted key afresh; a correction
			// and a retraction tombstone a live one, which compacts the
			// table when it leaves more than half of its shards' slots
			// dead.
			var f modelFact
			retract, tombstones := false, true
			switch op := r.Intn(10); {
			case op < 2 && len(retracted) > 0:
				k := r.Intn(len(retracted))
				f, tombstones = modelFact{retracted[k], float64(b*batch + w)}, false
				retracted = slices.Delete(retracted, k, k+1)
				model = append(model, f)
			case op < 6:
				i := r.Intn(len(model))
				f = modelFact{model[i].key, float64(-(b*batch + w))}
				if r.Intn(8) == 0 {
					f.v += 0.5
				}
				model = append(slices.Delete(model, i, i+1), f)
			default:
				i := r.Intn(len(model))
				f, retract = model[i], true
				model = slices.Delete(model, i, i+1)
				retracted = append(retracted, f.key)
			}
			c, at := key(f.key)
			write := func(g *Schema) {
				if !retract {
					if err := g.InsertFact(c, at, f.v); err != nil {
						t.Fatal(err)
					}
				} else if old, err := g.RetractFact(c, at); err != nil || old.Values[0] != f.v {
					t.Fatalf("RetractFact(%v@%v) = %v, %v; model has %v", c, at, old, err, f.v)
				}
			}
			var twin *Schema
			if tombstones && 2*(ft.dead+1) > len(ft.shards)*MappedShardSize {
				twin = uncompacted(s, write)
			}
			before := metFactCompactions.Value()
			write(s)
			if did := metFactCompactions.Value() > before; did != (twin != nil) {
				t.Fatalf("batch %d write %d: compacted %v, want %v (%d dead of %d slots)", b, w, did, twin != nil, ft.dead, ft.n)
			}
			if ft.n > 2*ft.Len()+MappedShardSize {
				t.Fatalf("batch %d write %d: %d slots for %d facts", b, w, ft.n, ft.Len())
			}
			if twin == nil {
				continue
			}
			compared++
			label := fmt.Sprintf("batch %d write %d", b, w)
			tt := twin.facts
			if ft.dead != 0 || ft.n != ft.Len() || tt.n == tt.Len() {
				t.Fatalf("%s: compacted table %d dead of %d slots, uncompacted twin %d of %d", label, ft.dead, ft.n, tt.dead, tt.n)
			}
			if factsDigest(s) != factsDigest(twin) {
				t.Fatalf("%s: the compaction changed the facts or their order", label)
			}
			for _, f := range model {
				c, at := key(f.key)
				v, ok := ft.Lookup(c, at)
				tv, tok := tt.Lookup(c, at)
				if !ok || !tok || !slices.Equal(bitsOf(v), bitsOf(tv)) || v[0] != f.v {
					t.Fatalf("%s: Lookup(%v@%v) = %v, %v; uncompacted %v, %v; model %v", label, c, at, v, ok, tv, tok, f.v)
				}
			}
			if !bytes.Equal(EncodeFacts(s), EncodeFacts(twin)) {
				t.Fatalf("%s: the compacted table's snapshot bytes differ from the uncompacted one's", label)
			}
			requireSameAnswers(t, label+" vs uncompacted", answers(t, s), answers(t, twin))
		}
		label := fmt.Sprintf("batch %d", b)
		if ft.Len() != len(model) {
			t.Fatalf("%s: %d facts, model has %d", label, ft.Len(), len(model))
		}
		got, cold := answers(t, s), rebuild()
		requireSameAnswers(t, label+" vs cold rebuild", got, answers(t, cold))
		digest := factsDigest(s)
		if digest != factsDigest(cold) {
			t.Fatalf("%s: facts differ from the model's, in store order", label)
		}
		published = append(published, generation{s, digest, got})
	}
	if got := metFactCompactions.Value() - compactions; got < 2 || compared < 2 {
		t.Fatalf("%d compactions, %d compared; want at least 2", got, compared)
	}
	modesMatchCold(t, "the last generation", s)
	for gi, g := range published {
		label := fmt.Sprintf("generation %d", gi)
		if factsDigest(g.s) != g.facts {
			t.Fatalf("%s no longer reads the facts it was published with", label)
		}
		requireSameAnswers(t, label+" at the end", answers(t, g.s), g.answers)
	}
}
