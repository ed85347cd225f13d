package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mvolap/internal/temporal"
)

// wideInstants are the instants the wide lineage writes, ascending:
// Origin, two months of year 1, two years from 2000, the years 6000 and
// 9000, and Now — more than a narrow column's 65 536 months end to end.
var wideInstants = func() []temporal.Instant {
	out := []temporal.Instant{temporal.Origin, ym(1, 1), ym(1, 2)}
	for m := 0; m < 24; m++ {
		out = append(out, ym(2000, 1)+temporal.Instant(m))
	}
	return append(out, ym(6000, 1), ym(9000, 6), temporal.Now)
}()

// narrowOf relabels wideInstants[i] in order into one narrow window:
// the narrow twin's instant.
func narrowOf(i int) temporal.Instant { return ym(2000, 1) + temporal.Instant(i) }

// twinGen is one generation of the wide lineage beside its narrow twin,
// with the facts the wide one held when it was published.
type twinGen struct {
	wide, narrow *Schema
	facts        string
}

// TestPropertyWideShardMatchesNarrow: a lineage whose shards hold
// instants more than 65 535 months apart, Origin and Now included,
// answers as its narrow twin — the same operations in the same order,
// every instant relabelled in order into one narrow window, so that no
// shard of the twin is ever widened. Scans (grand totals, per-member
// rollups, time ranges, every mode), Present, Lookup, retractions and
// the codec's round trip agree, up to the relabelling, bit for bit.
// The first write widens a borrowed tail that the generation before
// still reads; every generation, checked after its lineage wrote on,
// still reads the facts it was published with.
func TestPropertyWideShardMatchesNarrow(t *testing.T) {
	const members, gens, batch = 150, 20, 300
	ids := make([]MVID, members)
	for k := range ids {
		ids[k] = MVID(fmt.Sprintf("m%d", k))
	}
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			cur := twinGen{wide: factSchema(t, 2, ids...), narrow: factSchema(t, 2, ids...)}
			insert := func(g twinGen, c Coords, i int, v0, v1 float64) {
				t.Helper()
				if err := g.wide.InsertFact(c, wideInstants[i], v0, v1); err != nil {
					t.Fatal(err)
				}
				if err := g.narrow.InsertFact(c, narrowOf(i), v0, v1); err != nil {
					t.Fatal(err)
				}
			}
			// A partial narrow tail, published; the next generation's
			// first append lands in year 9000 and widens the tail it
			// borrows, which the published generation still reads.
			for k := 0; k < 100; k++ {
				insert(cur, Coords{ids[k]}, 3+k%24, float64(k), 0.1)
			}
			cur.facts = factsOf(cur.wide)
			published := []twinGen{cur}
			next := twinGen{wide: cur.wide.Clone(), narrow: cur.narrow.Clone()}
			old := cur.wide.facts.shards[0]
			insert(next, Coords{ids[0]}, len(wideInstants)-2, 7, 0.2)
			tail := next.wide.facts.shards[0]
			if tail.wide == nil || old.wide != nil || tail == old || tail.claim == old.claim || old.n != 100 {
				t.Fatalf("the widening append did not privatize the borrowed tail: wide %v/%v, n %d", tail.wide != nil, old.wide != nil, old.n)
			}
			cur = next

			for g := 0; g < gens; g++ {
				for k := 0; k < batch; k++ {
					c, i := Coords{ids[r.Intn(members)]}, r.Intn(len(wideInstants))
					_, had := cur.wide.facts.Lookup(c, wideInstants[i])
					switch op := r.Intn(10); {
					case op < 2 && had:
						wf, werr := cur.wide.RetractFact(c, wideInstants[i])
						nf, nerr := cur.narrow.RetractFact(c, narrowOf(i))
						if werr != nil || nerr != nil || wf.Time != wideInstants[i] || !slices.Equal(bitsOf(wf.Values), bitsOf(nf.Values)) {
							t.Fatalf("retract %v@%v: %v (%v), twin %v (%v)", c, wideInstants[i], wf, werr, nf, nerr)
						}
					default:
						insert(cur, c, i, r.NormFloat64(), float64(r.Intn(9)))
					}
				}
				cur.facts = factsOf(cur.wide)
				published = append(published, cur)
				cur = twinGen{wide: cur.wide.Clone(), narrow: cur.narrow.Clone()}
			}

			wideShards := 0
			for gi, g := range published {
				label := fmt.Sprintf("generation %d", gi)
				for _, sh := range g.narrow.facts.shards {
					if sh.wide != nil {
						t.Fatalf("%s: the narrow twin widened a shard", label)
					}
				}
				for _, sh := range g.wide.facts.shards {
					if sh.wide != nil {
						wideShards++
					}
				}
				if got := factsOf(g.wide); got != g.facts {
					t.Fatalf("%s no longer reads the facts it was published with", label)
				}
				requireTwins(t, label, g.wide, g.narrow, r)
				back := factSchema(t, 2, ids...)
				if err := DecodeFacts(EncodeFacts(g.wide), back); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := factsOf(back); got != g.facts {
					t.Fatalf("%s: the codec's round trip changed the facts", label)
				}
				requireTwins(t, label+" reloaded", back, g.narrow, r)
			}
			if wideShards == 0 {
				t.Fatal("no shard was widened")
			}
		})
	}
}

// requireTwins checks that wide, whose instants are wideInstants,
// answers as narrow, whose instants are their relabelling: facts,
// lookups, queries and presentations in every mode.
func requireTwins(t *testing.T, label string, wide, narrow *Schema, r *rand.Rand) {
	t.Helper()
	relabel := func(at temporal.Instant) temporal.Instant {
		i := slices.Index(wideInstants, at)
		if i < 0 {
			t.Fatalf("%s: instant %v was never written", label, at)
		}
		return narrowOf(i)
	}
	wf, nf := wide.Facts().Facts(), narrow.Facts().Facts()
	if len(wf) != len(nf) {
		t.Fatalf("%s: %d facts, twin %d", label, len(wf), len(nf))
	}
	for k := range wf {
		if !wf[k].Coords.Equal(nf[k].Coords) || relabel(wf[k].Time) != nf[k].Time || !slices.Equal(bitsOf(wf[k].Values), bitsOf(nf[k].Values)) {
			t.Fatalf("%s: fact %d = %v@%v %v, twin %v@%v %v", label, k, wf[k].Coords, wf[k].Time, wf[k].Values, nf[k].Coords, nf[k].Time, nf[k].Values)
		}
	}
	for k := 0; k < 64; k++ {
		c, i := Coords{wf[r.Intn(len(wf))].Coords[0]}, r.Intn(len(wideInstants))
		wv, wok := wide.Facts().Lookup(c, wideInstants[i])
		nv, nok := narrow.Facts().Lookup(c, narrowOf(i))
		if wok != nok || !slices.Equal(bitsOf(wv), bitsOf(nv)) {
			t.Fatalf("%s: Lookup(%v@%v) = %v %v, twin %v %v", label, c, wideInstants[i], wv, wok, nv, nok)
		}
	}
	modes, twinModes := wide.Modes(), narrow.Modes()
	if len(modes) != len(twinModes) {
		t.Fatalf("%s: %d modes, twin %d", label, len(modes), len(twinModes))
	}
	for mi, m := range modes {
		a, b := r.Intn(len(wideInstants)), r.Intn(len(wideInstants))
		a, b = min(a, b), max(a, b)
		for _, q := range []Query{
			{Grain: GrainAll},
			{GroupBy: []GroupBy{{Dim: "D", Level: "Member"}}, Grain: GrainAll},
			{GroupBy: []GroupBy{{Dim: "D", Level: "Member"}}, Grain: GrainAll, Range: temporal.Between(wideInstants[a], wideInstants[b])},
		} {
			q.Mode = m
			tq := q
			tq.Mode = twinModes[mi]
			if q.Range != (temporal.Interval{}) {
				tq.Range = temporal.Between(narrowOf(a), narrowOf(b))
			}
			got, err := wide.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := narrow.Execute(tq)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s, %s over %v", label, m, q.Range)
			requireBitIdentical(t, what, got, want)
			// Both twins prune by zone maps; the wide one must read as
			// it does with none.
			requireBitIdentical(t, what+" unpruned", executeUnpruned(t, wide, q), got)
		}
		got, want := renderPresent(t, wide, m, relabel), renderPresent(t, narrow, twinModes[mi], nil)
		if got != want {
			t.Fatalf("%s, %s: Present\n%s\ntwin\n%s", label, m, got, want)
		}
	}
}

// factsOf renders a schema's facts, values by their bits.
func factsOf(s *Schema) string {
	var b strings.Builder
	for _, f := range s.Facts().Facts() {
		fmt.Fprintf(&b, "%v@%d %x\n", f.Coords, int64(f.Time), bitsOf(f.Values))
	}
	return b.String()
}

// renderPresent renders f'|m, instants through relabel (as stored when
// nil), values by their bits.
func renderPresent(t *testing.T, s *Schema, m Mode, relabel func(temporal.Instant) temporal.Instant) string {
	t.Helper()
	var b strings.Builder
	dropped, err := s.Present(m, func(f *MappedFact) bool {
		at := f.Time
		if relabel != nil {
			at = relabel(at)
		}
		fmt.Fprintf(&b, "%v@%d %x %v %d\n", f.Coords, int64(at), bitsOf(f.Values), f.CFs, f.Sources)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "dropped %d\n", dropped)
	return b.String()
}

// bitsOf returns the bits of values, so NaNs compare.
func bitsOf(values []float64) []uint64 {
	out := make([]uint64, len(values))
	for k, v := range values {
		out[k] = math.Float64bits(v)
	}
	return out
}
