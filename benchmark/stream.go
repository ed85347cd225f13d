package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"mvolap/internal/core"
	"mvolap/internal/store"
	"mvolap/internal/temporal"
	"mvolap/internal/workload"
)

type opKind uint8

const (
	kindQuery opKind = iota
	kindFacts
	kindRetract
	kindEvolve
	numKinds
)

var kindNames = [numKinds]string{"query", "facts", "retract", "evolve"}

var kindPaths = [numKinds]string{"", "/facts", "/facts/retract", "/evolve"}

// op is one pre-generated request. A query carries its statement, a
// mutation its POST body.
type op struct {
	kind opKind
	stmt string
	body []byte
	// after is the index of the op that must have been answered before
	// this one is sent (-1: none). With two clients pulling from one
	// queue a RECLASSIFY could otherwise overtake the INSERT of its
	// member; in practice the wait never happens.
	after int
}

const (
	// fixedSeed generates what must not vary with --seed: the warehouse
	// and pool256.
	fixedSeed    = 11
	poolSize     = 256
	factsPerOp   = 32
	retractPerOp = 1
	// reclassifyGap is the minimum distance between a RECLASSIFY and the
	// previous op on the same member.
	reclassifyGap = 8
)

// buildPool generates pool256: 256 distinct SELECTs. Every fifth rank
// is a drill (BY Org.Department, grain YEAR or QUARTER, at most two
// years: ~12-16k rows, ~3 MB); the rest are rollups (BY Org.Division,
// any grain, range and mode: at most 576 rows). The pool does not
// depend on --seed: which statements are hot and what they cost decide
// every read metric, and the driver compares runs of different seeds.
// OpGen.Query is not used: its Department x MONTH statements return
// 35 MB bodies, which turn a cache hit into a memcpy benchmark.
func buildPool(sf workload.Surface) []string {
	r := rand.New(rand.NewSource(fixedSeed))
	years := sf.LastYear - sf.FirstYear + 1
	seen := map[string]bool{}
	pool := make([]string, 0, poolSize)
	for len(pool) < poolSize {
		drill := len(pool)%5 == 4
		var b strings.Builder
		b.WriteString("SELECT ")
		if r.Intn(10) < 3 {
			b.WriteString("*")
		} else {
			b.WriteString(sf.Measures[r.Intn(len(sf.Measures))])
		}
		if drill {
			b.WriteString(" BY Org.Department, TIME.")
			b.WriteString([]string{"YEAR", "QUARTER"}[r.Intn(2)])
			y1 := sf.FirstYear + r.Intn(years)
			y2 := min(y1+r.Intn(2), sf.LastYear)
			fmt.Fprintf(&b, " WHERE TIME BETWEEN %d AND %d", y1, y2)
		} else {
			b.WriteString(" BY Org.Division, TIME.")
			switch g := r.Intn(20); {
			case g < 12:
				b.WriteString("YEAR")
			case g < 15:
				b.WriteString("QUARTER")
			case g < 18:
				b.WriteString("MONTH")
			default:
				b.WriteString("ALL")
			}
			if r.Intn(10) < 7 {
				y1 := sf.FirstYear + r.Intn(years)
				y2 := y1 + r.Intn(sf.LastYear-y1+1)
				fmt.Fprintf(&b, " WHERE TIME BETWEEN %d AND %d", y1, y2)
			}
		}
		switch m := r.Intn(20); {
		case m < 13:
			b.WriteString(" MODE tcm")
		case m < 18:
			fmt.Fprintf(&b, " MODE VERSION AT %d", sf.FirstYear+r.Intn(years))
		}
		if s := b.String(); !seen[s] {
			seen[s] = true
			pool = append(pool, s)
		}
	}
	return pool
}

// spreadOver returns n pool ranks in which each rank occurs as often as
// its share says, by largest remainder: Zipf(1.1) (rank k weighs
// (1+k)^-1.1) or uniform.
func spreadOver(n int, zipf bool) []int {
	weights := make([]float64, poolSize)
	var total float64
	for k := range weights {
		weights[k] = 1
		if zipf {
			weights[k] = math.Pow(float64(1+k), -1.1)
		}
		total += weights[k]
	}
	out := make([]int, 0, n)
	type rest struct {
		rank int
		frac float64
	}
	rests := make([]rest, poolSize)
	for k, w := range weights {
		exact := float64(n) * w / total
		for range int(exact) {
			out = append(out, k)
		}
		rests[k] = rest{k, exact - math.Floor(exact)}
	}
	sort.SliceStable(rests, func(i, j int) bool { return rests[i].frac > rests[j].frac })
	for _, r := range rests[:n-len(out)] {
		out = append(out, r.rank)
	}
	return out
}

// stream is everything a workload sends: an uncounted warm-up prefix
// and the measured ops.
type stream struct {
	pool    []string
	warmup  []op
	ops     []op
	digests digests
}

// buildStream generates the op stream of one workload from the seed
// warehouse alone, before anything is served. Facts land on leaves
// that are valid from the end of recorded history on, each at its own
// (leaf, month), so no batch ever replaces a tuple; retracts address
// seed facts, each once; evolves insert fresh members and reclassify
// members inserted at least reclassifyGap ops earlier. No op can fail
// at any interleaving of the two clients.
func buildStream(sp spec, seed int64, n int, sch *core.Schema) (stream, error) {
	r := rand.New(rand.NewSource(seed))
	sf := workload.SurfaceOf(sch)
	if err := sf.Validate(); err != nil {
		return stream{}, err
	}
	if len(sf.Parents) < 2 {
		return stream{}, fmt.Errorf("stream: RECLASSIFY needs two parents, the warehouse has %d", len(sf.Parents))
	}
	st := stream{pool: buildPool(sf)}

	// The seed decides the order of the stream, never its make-up: the
	// kinds occur in exactly their declared shares and the statements in
	// exactly their Zipf (or uniform) shares, shuffled. Runs of different
	// seeds then do the same work in another order, and what differs
	// between them is the program's timing, not the draw.
	kinds := make([]opKind, 0, n)
	for k := kindFacts; k < numKinds; k++ {
		for range n * sp.mix[k] / 100 {
			kinds = append(kinds, k)
		}
	}
	queries := n - len(kinds)
	for len(kinds) < n {
		kinds = append(kinds, kindQuery)
	}
	r.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	stmts := spreadOver(queries+poolSize/20, sp.zipf)
	r.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	pick := func() string {
		s := st.pool[stmts[0]]
		stmts = stmts[1:]
		return s
	}

	// Warm-up: the mode cache (one query per mode) and 5 % of the pool.
	for _, m := range sch.Modes() {
		st.warmup = append(st.warmup, op{kind: kindQuery, after: -1,
			stmt: "SELECT * BY Org.Division, TIME.YEAR MODE " + m.String()})
	}
	for i := 0; i < poolSize/20; i++ {
		st.warmup = append(st.warmup, op{kind: kindQuery, stmt: pick(), after: -1})
	}

	leaves := sf.DimLeaves[0]
	r.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
	factBase := temporal.Year(sf.LastYear + 1)
	nextFact := 0
	// Retracts address facts of members no mapping relationship names:
	// such a fact is the only source of its cell in every mode, so every
	// warm mode absorbs the retraction and none is evicted. With no query
	// to rebuild it, an evicted mode would stay away for the rest of an
	// ingest run, and how much work the run does would hang on which
	// facts the seed picked.
	mapped := map[core.MVID]bool{}
	for _, m := range sch.Mappings() {
		mapped[m.From], mapped[m.To] = true, true
	}
	var seedFacts []*core.Fact
	for _, f := range sch.Facts().Facts() {
		if !mapped[f.Coords[0]] {
			seedFacts = append(seedFacts, f)
		}
	}
	retractOrder := r.Perm(len(seedFacts))
	nextRetract := 0

	type member struct {
		id, parent string
		lastOp     int
	}
	var members []member
	clock := temporal.Year(sf.LastYear + 1)

	for i := 0; i < n; i++ {
		o := op{kind: kinds[i], after: -1}
		switch o.kind {
		case kindQuery:
			o.stmt = pick()
		case kindFacts:
			batch := make([]store.FactRecord, factsPerOp)
			for k := range batch {
				leaf := leaves[nextFact%len(leaves)]
				at := factBase + temporal.Instant(nextFact/len(leaves))
				nextFact++
				values := make([]float64, len(sf.Measures))
				for v := range values {
					values[v] = float64(10 + r.Intn(200))
				}
				batch[k] = store.FactRecord{Coords: []string{leaf.ID}, Time: at.String(), Values: values}
			}
			o.body, _ = json.Marshal(batch) // plain strings and floats: cannot fail
		case kindRetract:
			batch := make([]store.RetractRecord, retractPerOp)
			for k := range batch {
				f := seedFacts[retractOrder[nextRetract]]
				nextRetract++
				coords := make([]string, len(f.Coords))
				for c, id := range f.Coords {
					coords[c] = string(id)
				}
				batch[k] = store.RetractRecord{Coords: coords, Time: f.Time.String()}
			}
			o.body, _ = json.Marshal(batch)
		case kindEvolve:
			at := clock
			clock++
			target := -1
			if r.Intn(10) < 3 {
				// The oldest member not touched within the gap, if any.
				for m := range members {
					if i-members[m].lastOp >= reclassifyGap {
						target = m
						break
					}
				}
			}
			if target >= 0 {
				m := members[target]
				to := sf.Parents[r.Intn(len(sf.Parents))]
				for to == m.parent {
					to = sf.Parents[r.Intn(len(sf.Parents))]
				}
				o.body = []byte(fmt.Sprintf("RECLASSIFY %s %s AT %s FROM %s TO %s", sf.Dim, m.id, at, m.parent, to))
				o.after = m.lastOp
				m.parent, m.lastOp = to, i
				// To the back, so the next RECLASSIFY picks another member.
				members = append(append(members[:target], members[target+1:]...), m)
			} else {
				id := fmt.Sprintf("bench-%d", len(members))
				parent := sf.Parents[r.Intn(len(sf.Parents))]
				o.body = []byte(fmt.Sprintf("INSERT %s %s %s LEVEL %s AT %s PARENTS %s", sf.Dim, id, id, sf.LeafLevel, at, parent))
				members = append(members, member{id: id, parent: parent, lastOp: i})
			}
		}
		st.ops = append(st.ops, o)
	}
	return st, nil
}

// digest is the SHA-256 over every op in order, warm-up included.
func (s stream) digest() string {
	h := sha256.New()
	var n [8]byte
	for _, part := range [][]op{s.warmup, s.ops} {
		for _, o := range part {
			payload := o.body
			if o.kind == kindQuery {
				payload = []byte(o.stmt)
			}
			binary.LittleEndian.PutUint64(n[:], uint64(len(payload))<<8|uint64(o.kind))
			h.Write(n[:])
			h.Write(payload)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestPool(pool []string) string {
	sum := sha256.Sum256([]byte(strings.Join(pool, "\n")))
	return hex.EncodeToString(sum[:])
}
