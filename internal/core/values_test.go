package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// specialValues are values no narrow value column holds, each of which
// forces a shard to float64: −0, NaN with a payload, ±Inf, the first
// integers past int16's range either way, 2^53 + 1 (which rounds to
// 2^53: an integer, far past int16) and a fraction.
var specialValues = []float64{
	math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_0001), math.Inf(1), math.Inf(-1),
	32768, -32769, float64(1<<53 + 1), 0.5,
}

// valueTwin is one generation of a lineage beside its all-float twin,
// with the facts the lineage held when it was published.
type valueTwin struct {
	narrow, float *Schema
	facts         string
}

// forceWide gives every shard of s a float64 value column, privatizing
// each narrow one, so no column another generation reads is written.
func forceWide(s *Schema) {
	ft := s.facts
	for si, sh := range ft.shards {
		if sh.values == nil {
			ft.privatize(si, false, true)
		}
	}
}

// TestPropertyWideValuesMatchNarrow: a lineage whose shards keep whole
// values as int16s answers as its all-float twin — the same operations
// in the same order, every published shard of the twin widened to
// float64 — bit for bit: facts, lookups, retractions, queries in tcm
// and every version mode (the oracle's structure, with Sum, Max, Avg
// and Count measures and mapping functions) and Present, and again
// after the codec's round trip. The lineage appends, corrects with
// integers and with fractions, retracts, and writes −0, NaN with a
// payload, ±Inf, 32 768 and 2^53 + 1. Its first write after a publish
// widens a borrowed tail that the generation before still reads, and
// its corrections of full shards leave them narrow: a correction is a
// tombstone there plus an append to the tail. Every generation, checked
// after its lineage wrote on, still reads the facts it was published
// with.
func TestPropertyWideValuesMatchNarrow(t *testing.T) {
	const gens, batch = 5, 400
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			narrowS, keys, _ := oracleStructure(t, seed)
			floatS, _, _ := oracleStructure(t, seed)
			cur := valueTwin{narrow: narrowS, float: floatS}
			var published []valueTwin
			publish := func() {
				forceWide(cur.float)
				cur.facts = factsDigest(cur.narrow)
				published = append(published, cur)
				cur = valueTwin{narrow: cur.narrow.Clone(), float: cur.float.Clone()}
			}
			insert := func(k oracleKey, v ...float64) {
				t.Helper()
				for _, s := range []*Schema{cur.narrow, cur.float} {
					if err := s.InsertFact(k.coords, k.at, v...); err != nil {
						t.Fatal(err)
					}
				}
			}
			// values draws whole amounts, one of them special when asked.
			values := func(special bool) []float64 {
				v := make([]float64, 4)
				for k := range v {
					v[k] = float64(r.Intn(601) - 300)
				}
				if special {
					v[r.Intn(len(v))] = specialValues[r.Intn(len(specialValues))]
				}
				return v
			}

			// Generation 0: two full shards and a partial tail, all narrow.
			next := 0
			for ; next < 2*MappedShardSize+300; next++ {
				insert(keys[next], values(false)...)
			}
			for si, sh := range cur.narrow.facts.shards {
				if sh.values != nil || sh.ints == nil {
					t.Fatalf("shard %d of whole values is not narrow", si)
				}
			}
			publish()

			// Generation 1: a fraction appended widens the borrowed tail,
			// and the corrections of full shards 1 (to −0) and 0 (whole)
			// tombstone their slots under headers of the generation's own
			// over the narrow columns and append to the wide tail; the
			// generation before reads none of it.
			base := published[0].narrow.facts
			insert(keys[next], 0.5, 1, 2, 3)
			next++
			insert(keys[MappedShardSize+7], math.Copysign(0, -1), 1, 2, 3)
			insert(keys[5], -7, 8, 9, 10)
			for si, j := range []int{5, 7} {
				sh, old := cur.narrow.facts.shards[si], base.shards[si]
				if sh == old || sh.values != nil || &sh.ints[0] != &old.ints[0] || sh.isLive(j) || !old.isLive(j) {
					t.Fatalf("shard %d after its correction: own header %v, wide %v, columns shared %v, slot %d live %v (source %v)",
						si, sh != old, sh.values != nil, &sh.ints[0] == &old.ints[0], j, sh.isLive(j), old.isLive(j))
				}
			}
			if tail := cur.narrow.facts.shards[2]; tail.values == nil || tail.n != 303 {
				t.Fatalf("the tail after the fraction and two corrections: wide %v, n %d; want wide, 303", tail.values != nil, tail.n)
			}
			if tail, old := cur.narrow.facts.shards[2], base.shards[2]; tail.claim == old.claim || old.n != 300 {
				t.Fatalf("the widening append did not privatize the borrowed tail (n %d)", old.n)
			}
			publish()

			for g := 0; g < gens; g++ {
				for op := 0; op < batch; op++ {
					i := r.Intn(next)
					k := keys[i]
					_, had := cur.narrow.facts.Lookup(k.coords, k.at)
					switch x := r.Intn(20); {
					case x < 12 && next < len(keys):
						insert(keys[next], values(r.Intn(25) == 0)...)
						next++
					case x < 17 && had:
						insert(k, values(r.Intn(4) == 0)...)
					case had:
						nf, nerr := cur.narrow.RetractFact(k.coords, k.at)
						ff, ferr := cur.float.RetractFact(k.coords, k.at)
						if nerr != nil || ferr != nil || !slices.Equal(bitsOf(nf.Values), bitsOf(ff.Values)) {
							t.Fatalf("retract %v@%v: %v (%v), twin %v (%v)", k.coords, k.at, nf, nerr, ff, ferr)
						}
					}
				}
				publish()
			}

			narrowShards, wideShards := 0, 0
			for _, sh := range published[len(published)-1].narrow.facts.shards {
				if sh.values == nil {
					narrowShards++
				} else {
					wideShards++
				}
			}
			if published[len(published)-1].narrow.facts.shards[0].values != nil || narrowShards == 0 || wideShards == 0 {
				t.Fatalf("the lineage ends with %d narrow and %d wide shards, shard 0 wide: want both kinds, shard 0 narrow", narrowShards, wideShards)
			}
			for gi, g := range published {
				label := fmt.Sprintf("generation %d", gi)
				if got := factsDigest(g.narrow); got != g.facts {
					t.Fatalf("%s no longer reads the facts it was published with", label)
				}
				for si, sh := range g.float.facts.shards {
					if sh.values == nil {
						t.Fatalf("%s: shard %d of the all-float twin is narrow", label, si)
					}
				}
				// Every mode for the last generation, before and after the
				// round trip; tcm and two version modes for the others.
				last := gi == len(published)-1
				requireValueTwins(t, label, g.narrow, g.float, keys[:next], last, r)
				data := EncodeFacts(g.narrow)
				if !bytes.Equal(data, EncodeFacts(g.float)) {
					t.Fatalf("%s: the payload differs from the twin's", label)
				}
				back, _, _ := oracleStructure(t, seed)
				if err := DecodeFacts(data, back); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := factsDigest(back); got != g.facts {
					t.Fatalf("%s: the codec's round trip changed the facts", label)
				}
				if last {
					requireValueTwins(t, label+" reloaded", back, g.float, keys[:next], true, r)
				}
			}
		})
	}
}

// requireValueTwins checks that a schema answers as its all-float twin,
// bit for bit: facts, lookups of keys, a grand total and a few of the
// oracle's queries in tcm and every version mode (in tcm and about two
// version modes drawn at random unless every mode is asked for), and
// Present in tcm and about two version modes.
func requireValueTwins(t *testing.T, label string, s, twin *Schema, keys []oracleKey, every bool, r *rand.Rand) {
	t.Helper()
	if got, want := factsDigest(s), factsDigest(twin); got != want {
		t.Fatalf("%s: facts differ from the twin's", label)
	}
	for n := 0; n < 64; n++ {
		k := keys[r.Intn(len(keys))]
		v, ok := s.Facts().Lookup(k.coords, k.at)
		tv, tok := twin.Facts().Lookup(k.coords, k.at)
		if ok != tok || !slices.Equal(bitsOf(v), bitsOf(tv)) {
			t.Fatalf("%s: Lookup(%v@%v) = %v %v, twin %v %v", label, k.coords, k.at, v, ok, tv, tok)
		}
	}
	modes, twinModes := s.Modes(), twin.Modes()
	if len(modes) != len(twinModes) {
		t.Fatalf("%s: %d modes, twin %d", label, len(modes), len(twinModes))
	}
	for mi, m := range modes {
		drawn := mi == 0 || r.Intn(len(modes)) < 2
		if !every && !drawn {
			continue
		}
		qs := []Query{{Grain: GrainAll}}
		for n := 0; n < 3; n++ {
			qs = append(qs, oracleQuery(r, s))
		}
		for _, q := range qs {
			q.Mode = m
			got, err := s.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			tq := q
			tq.Mode = twinModes[mi]
			want, err := twin.Execute(tq)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, fmt.Sprintf("%s, %s: %+v", label, m, q), got, want)
		}
		if !drawn {
			continue
		}
		if got, want := presentDigest(t, s, m), presentDigest(t, twin, twinModes[mi]); got != want {
			t.Fatalf("%s, %s: Present differs from the twin's", label, m)
		}
	}
}

// factsDigest spells a schema's facts in bytes, values by their bits:
// factsOf without the formatting.
func factsDigest(s *Schema) string {
	var b []byte
	s.Facts().All(func(f *Fact) bool {
		b = appendTuple(b, f.Coords, int64(f.Time), f.Values)
		return true
	})
	return string(b)
}

// presentDigest spells f'|m in bytes, values by their bits, with its
// confidences, sources and dropped count: renderPresent without the
// formatting.
func presentDigest(t *testing.T, s *Schema, m Mode) string {
	t.Helper()
	var b []byte
	dropped, err := s.Present(m, func(f *MappedFact) bool {
		b = appendTuple(b, f.Coords, int64(f.Time), f.Values)
		for _, cf := range f.CFs {
			b = append(b, byte(cf))
		}
		b = binary.AppendUvarint(b, uint64(f.Sources))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(binary.AppendUvarint(b, uint64(dropped)))
}

// appendTuple appends a tuple's coordinates, instant and value bits.
func appendTuple(b []byte, coords Coords, at int64, values []float64) []byte {
	for _, id := range coords {
		b = append(append(b, id...), 0)
	}
	b = binary.AppendVarint(b, at)
	for _, v := range values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}
