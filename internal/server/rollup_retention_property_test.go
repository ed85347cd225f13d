package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/schemaio"
	"mvolap/internal/temporal"
	"mvolap/internal/workload"
)

// retentionPool is the statement pool of the retention property: tcm
// and version modes, both explicit levels (and the derived ones an
// unlevelled insert switches the dimension to), every grain, bounded
// and unbounded ranges, and a dice.
var retentionPool = []string{
	"SELECT * BY Org.Division, TIME.YEAR MODE tcm",
	"SELECT m0 BY Org.Department, TIME.QUARTER MODE tcm",
	"SELECT m1 BY Org.Division, TIME.MONTH WHERE TIME BETWEEN 2001 AND 2002 MODE tcm",
	"SELECT m0 BY Org.Department, TIME.YEAR WHERE Org IN 'div-0' MODE tcm",
	"SELECT * BY Org.Division, TIME.ALL WHERE Org IN 'div-1', 'div-2' AND TIME BETWEEN 2000 AND 2002 MODE tcm",
	"SELECT m0 BY Org.Division, TIME.YEAR MODE VERSION AT 2000",
	"SELECT m0 BY Org.Department, TIME.YEAR MODE VERSION AT 2002",
	"SELECT * BY Org.Department, TIME.QUARTER WHERE Org IN 'div-0' MODE VERSION AT 2003",
	"SELECT m0 BY Org.depth-0, TIME.YEAR MODE tcm",
	"SELECT m0 BY Org.depth-1, TIME.YEAR MODE VERSION AT 2001",
}

// serveQuery answers one statement over a schema through the real
// /query handler, result cache off: status line and body bytes.
func serveQuery(sch *core.Schema, stmt string) []byte {
	rec := httptest.NewRecorder()
	h := New(sch, WithLogger(quietLogger()), WithQueryCache(0)).Handler()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q="+urlEncode(stmt), nil))
	return append([]byte(fmt.Sprintf("%d\n", rec.Code)), rec.Body.Bytes()...)
}

// historicalOps draws one operator acting somewhere inside recorded
// history — where stored facts roll up through the structure it
// changes — rather than at the end of it as the load generators do.
func historicalOps(r *rand.Rand, s *core.Schema, step int) []evolution.Op {
	d := s.Dimension(workload.OrgDim)
	at := temporal.YM(2000+r.Intn(5), 1+r.Intn(12))
	var divisions, departments []core.MVID
	for _, mv := range d.VersionsAt(at) {
		if mv.Level == "Division" {
			divisions = append(divisions, mv.ID)
		} else {
			departments = append(departments, mv.ID)
		}
	}
	if len(divisions) < 2 || len(departments) == 0 {
		return nil
	}
	dept := departments[r.Intn(len(departments))]
	fresh := core.MVID(fmt.Sprintf("hist-%d", step))
	switch r.Intn(5) {
	case 0, 1: // move a department to another division from `at` on
		var old []core.MVID
		for _, p := range d.ParentsAt(dept, at) {
			old = append(old, p.ID)
		}
		to := divisions[r.Intn(len(divisions))]
		for len(old) == 1 && to == old[0] {
			to = divisions[r.Intn(len(divisions))]
		}
		return evolution.ReclassifyMember(workload.OrgDim, dept, at, old, []core.MVID{to})
	case 2: // end a department after its last fact (or extend an ended one)
		for _, f := range s.Facts().Facts() {
			if f.Coords[0] == dept && f.Time >= at {
				at = f.Time.Next()
			}
		}
		return evolution.DeleteMember(workload.OrgDim, dept, at)
	case 3: // a department that did not exist when the facts were written
		return evolution.CreateMember(workload.OrgDim, evolution.NewMember{
			ID: fresh, Name: string(fresh), Level: "Department",
			Parents: []core.MVID{divisions[r.Intn(len(divisions))]},
		}, at)
	default: // a division adopting an existing department: a second parent
		return []evolution.Op{evolution.Insert{
			Dim: workload.OrgDim, ID: fresh, Name: string(fresh), Level: "Division",
			Start: at, Children: []core.MVID{dept},
		}}
	}
}

// TestPropertyRollupCacheRetentionMatchesCold is the serving-side
// property of content-keyed cache retention: a lineage of clone-swaps
// through evolution.Applier — version chains swept again for the
// mutated dimension only, rollup tables taken over by chain-entry hash,
// MVFT modes retained by WarmFrom — answers every statement of the pool
// byte-identically to the same warehouse written out and read back,
// which shares no derived state with anything.
func TestPropertyRollupCacheRetentionMatchesCold(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			w := workload.MustGenerate(workload.Config{
				Seed: seed, Divisions: 3, Departments: 8, Years: 4,
				EvolutionsPerYear: 2, FactsPerYear: 12, Measures: 2,
			})
			cur, applier := w.Schema, w.Applier
			const steps = 12
			for step := 0; step < steps; step++ {
				// Warm every cache the evolve could wrongly keep.
				for _, stmt := range retentionPool {
					serveQuery(cur, stmt)
				}
				ops := historicalOps(r, cur, step)
				if step == steps-2 && seed%2 == 0 {
					// Definition 4's switch: one unlevelled member renames
					// every level at every instant.
					ops = []evolution.Op{evolution.Insert{
						Dim: workload.OrgDim, ID: "unlevelled", Name: "unlevelled",
						Start: temporal.Year(2002), Parents: []core.MVID{"div-0"},
					}}
				}
				clone := cur.Clone()
				next := applier.Rebind(clone)
				touched, err := next.ApplyTouched(ops...)
				if err != nil {
					continue // rejected batch: the clone is discarded, as on a 422
				}
				clone.WarmFrom(context.Background(), cur, touched.Delta())

				var buf bytes.Buffer
				if err := schemaio.Write(&buf, clone); err != nil {
					t.Fatal(err)
				}
				cold, err := schemaio.Read(&buf)
				if err != nil {
					t.Fatal(err)
				}
				for _, stmt := range retentionPool {
					got, want := serveQuery(clone, stmt), serveQuery(cold, stmt)
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d after %s: %q diverges from the cold warehouse:\n%s\nvs\n%s",
							step, evolution.Describe(ops), stmt, got, want)
					}
				}
				cur, applier = clone, next
			}
		})
	}
}
