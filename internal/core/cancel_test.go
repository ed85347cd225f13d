package core

import (
	"context"
	"errors"
	"reflect"
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

// TestWarmFromCancelledMidFold cancels a write's clone-swap after the
// batch has appended into the tail shard its clone borrowed from base.
// WarmFrom has no fold left to abandon: under a context that is
// cancelled at its first check it carries nothing. Base answers in
// every mode as a fresh build of its facts does, though the abandoned
// clone claimed the tail's next slots; the abandoned clone answers like
// a cold rebuild and the oracle; and a sibling clone written afterwards
// with other values — which finds those slots claimed and must not
// append into them — does too, leaving the abandoned clone's answers as
// they were.
func TestWarmFromCancelledMidFold(t *testing.T) {
	const n, delta = MappedShardSize + 100, 300 // a partial tail; more facts than one cancel check stride
	base := bigTCMSchema(t, n)
	if got := len(base.Modes()); got != 4 {
		t.Fatalf("%d modes, want 4", got)
	}
	before := answers(t, base)
	insert := func(c *Schema, offset float64) Delta {
		for i := 0; i < delta; i++ {
			if err := c.InsertFact(Coords{[]MVID{"Smith", "Brian"}[i%2]}, ym(2600+i/24, 1+(i/2)%12), offset+float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return c.Delta()
	}

	abandoned := base.Clone()
	if res := abandoned.WarmFrom(newCancelAfter(0), base, insert(abandoned, 0)); !reflect.DeepEqual(res, WarmResult{}) {
		t.Fatalf("cancelled WarmFrom = %+v, want nothing carried", res)
	}
	bt := base.Facts()
	tail := bt.shards[len(bt.shards)-1]
	if tail.claim.Load() != int32(tail.n+delta) {
		t.Errorf("base tail claim %d, want the abandoned write's %d slots past %d", tail.claim.Load(), delta, tail.n)
	}
	requireSameAnswers(t, "base", answers(t, base), before)
	requireSameAnswers(t, "base vs fresh", answers(t, base), answers(t, bigTCMSchema(t, n)))
	modesMatchCold(t, "abandoned", abandoned)
	abandonedBefore := answers(t, abandoned)

	sibling := base.Clone()
	if res := sibling.WarmFrom(context.Background(), base, insert(sibling, 0.5)); !reflect.DeepEqual(res, WarmResult{}) {
		t.Fatalf("live WarmFrom = %+v, want nothing carried", res)
	}
	st := sibling.Facts()
	if &st.shards[len(bt.shards)-1].offs[0] == &tail.offs[0] {
		t.Error("the sibling appended into a tail whose slots the abandoned clone claimed")
	}
	modesMatchCold(t, "sibling", sibling)
	requireSameAnswers(t, "abandoned after the sibling", answers(t, abandoned), abandonedBefore)
	requireSameAnswers(t, "base after the sibling", answers(t, base), before)
}
