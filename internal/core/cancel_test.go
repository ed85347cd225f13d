package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"mvolap/internal/temporal"
)

// TestExecuteContextCancelled asserts the acceptance criterion: a query
// issued with an already-cancelled context returns promptly with a
// cancellation error instead of scanning facts.
func TestExecuteContextCancelled(t *testing.T) {
	s := splitSchema(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.ExecuteContext(ctx, Query{
		GroupBy: []GroupBy{{Dim: "Org", Level: "Division"}},
		Grain:   GrainYear,
		Mode:    TCM(),
	})
	if err == nil {
		t.Fatal("cancelled query should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
}

// TestExecuteContextDeadline covers the deadline flavour of
// cancellation used by the server's per-request query timeout.
func TestExecuteContextDeadline(t *testing.T) {
	s := splitSchema(t)
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	_, err := s.ExecuteContext(ctx, Query{
		GroupBy: []GroupBy{{Dim: "Org", Level: "Division"}},
		Grain:   GrainYear,
		Mode:    TCM(),
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
}

// TestModeContextCancelledBuildEvicted asserts that a build abandoned
// by cancellation is evicted from the mode cache, so the next live
// caller rebuilds cleanly instead of inheriting the failure.
// tcm is the fact table and is never built, so the test builds V1.
func TestModeContextCancelledBuildEvicted(t *testing.T) {
	s := splitSchema(t)
	mv := s.MultiVersion()
	v1 := InVersion(s.VersionByID("V1"))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mv.ModeContext(ctx, v1); err == nil {
		t.Fatal("cancelled materialization should fail")
	}

	mt, err := mv.ModeContext(context.Background(), v1)
	if err != nil {
		t.Fatalf("retry after cancelled build: %v", err)
	}
	if mt == nil || len(mt.Facts()) == 0 {
		t.Fatal("retry should produce a materialized table")
	}
	// One cancelled attempt plus one successful rebuild.
	if got := mv.Materializations(); got != 2 {
		t.Fatalf("Materializations() = %d, want 2", got)
	}
}

// TestSchemaCloneIsolated asserts Clone's copy-on-write contract: the
// clone is deep enough that in-place evolution of the clone's
// dimensions and facts never shows through to the original.
func TestSchemaCloneIsolated(t *testing.T) {
	orig := splitSchema(t)
	origVersions := len(orig.Dimension("Org").Versions())
	origFacts := orig.Facts().Len()
	origModes := len(orig.Modes())

	clone := orig.Clone()
	d := clone.Dimension("Org")
	if d == orig.Dimension("Org") {
		t.Fatal("clone shares the dimension pointer")
	}
	if err := d.AddVersion(&MemberVersion{
		ID: "NewDept", Member: "NewDept", Level: "Department",
		Valid: temporal.Since(y(2004)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetEnd("Smith", ym(2003, 12)); err != nil {
		t.Fatal(err)
	}
	if err := clone.InsertFact(Coords{"NewDept"}, y(2004), 99); err != nil {
		t.Fatal(err)
	}
	clone.Invalidate()

	if got := len(orig.Dimension("Org").Versions()); got != origVersions {
		t.Fatalf("original dimension mutated: %d versions, want %d", got, origVersions)
	}
	if v := orig.Dimension("Org").Version("Smith"); v == nil || v.Valid.End != temporal.Now {
		t.Fatal("original member validity mutated through clone")
	}
	if got := orig.Facts().Len(); got != origFacts {
		t.Fatalf("original facts mutated: %d, want %d", got, origFacts)
	}
	if got := len(orig.Modes()); got != origModes {
		t.Fatalf("original modes changed: %d, want %d", got, origModes)
	}

	// Both schemas stay independently queryable.
	for _, s := range []*Schema{orig, clone} {
		if _, err := s.Execute(Query{
			GroupBy: []GroupBy{{Dim: "Org", Level: "Division"}},
			Grain:   GrainYear,
			Mode:    TCM(),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)-th call on: a cancellation at an exact check, with no timing.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func newCancelAfter(n int) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.left.Store(int64(n))
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestWarmFromCancelledMidFold cancels WarmFrom inside its folds, after
// every warm version mode has appended part of a delta in place, into
// the tail shard it borrowed from base. The version modes are evicted —
// tcm, the fact table the batch already wrote, has no fold to abandon
// and stays — base's tables are untouched, and a sibling clone folded
// afterwards with a live context — which finds those tail slots claimed
// by the abandoned clone — equals a cold rebuild.
func TestWarmFromCancelledMidFold(t *testing.T) {
	const n, delta = MappedShardSize + 100, 300 // a partial tail; more facts than one cancel check stride
	base := bigTCMSchema(t, n)
	modes := base.Modes()
	if len(modes) != 4 {
		t.Fatalf("%d modes, want 4", len(modes))
	}
	for _, m := range modes {
		if _, err := base.MultiVersion().Mode(m); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(c *Schema) Delta {
		old := c.Facts().End()
		for i := 0; i < delta; i++ {
			if err := c.InsertFact(Coords{[]MVID{"Smith", "Brian"}[i%2]}, ym(2600+i/24, 1+(i/2)%12), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return Delta{NewFacts: c.Facts().Since(old)}
	}

	// WarmFrom checks ctx once per version mode while deciding
	// retention; every later check — each fold's first comes after
	// cancelCheckStride facts — reports the cancellation.
	abandoned := base.Clone()
	res := abandoned.WarmFrom(newCancelAfter(len(modes)-1), base, insert(abandoned))
	if len(res.Retained) != 1 || res.Retained[0] != "tcm" || len(res.Evicted) != len(modes)-1 || res.DeltaApplied != 1 {
		t.Fatalf("cancelled WarmFrom = %+v, want tcm retained and every version mode evicted", res)
	}
	if cached := len(abandoned.MultiVersion().byMode); cached != 1 {
		t.Fatalf("%d modes cached on the abandoned clone, want tcm only", cached)
	}
	fresh := bigTCMSchema(t, n)
	for _, m := range modes {
		bt, err := base.MultiVersion().Mode(m)
		if err != nil {
			t.Fatal(err)
		}
		// The batch itself appended to the fact table, tcm; a version
		// mode's fold was abandoned at its first cancellation check.
		claimed := cancelCheckStride
		if m.Kind == TCMKind {
			claimed = delta
		}
		if tail := bt.shards[len(bt.shards)-1]; tail.claim.Load() != int32(tail.n+claimed) {
			t.Errorf("%s: tail claim %d, want the abandoned write's %d slots past %d", m, tail.claim.Load(), claimed, tail.n)
		}
		want, err := fresh.MultiVersion().Mode(InVersionOf(fresh, m))
		if err != nil {
			t.Fatal(err)
		}
		equalMappedTables(t, "base/"+m.String(), bt, want)
	}

	sibling := base.Clone()
	if res := sibling.WarmFrom(context.Background(), base, insert(sibling)); len(res.Retained) != len(modes) {
		t.Fatalf("live WarmFrom retained %v, want all %d modes", res.Retained, len(modes))
	}
	cold := sibling.Clone()
	for _, m := range modes {
		bt, _ := base.MultiVersion().Mode(m)
		st, err := sibling.MultiVersion().Mode(m)
		if err != nil {
			t.Fatal(err)
		}
		tail := len(bt.shards) - 1
		if &st.shards[tail].times[0] == &bt.shards[tail].times[0] {
			t.Errorf("%s: the sibling appended into a tail whose slots the abandoned clone claimed", m)
		}
		want, err := cold.MultiVersion().Mode(InVersionOf(cold, m))
		if err != nil {
			t.Fatal(err)
		}
		equalMappedTables(t, "sibling/"+m.String(), st, want)
	}
}
