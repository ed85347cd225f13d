package evolution

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"mvolap/internal/core"
)

// TestApplyErrorReportsPosition asserts the partial-application
// contract: Apply stops at the first failing operator and the returned
// *ApplyError reports which operator failed and how many were applied
// before it.
func TestApplyErrorReportsPosition(t *testing.T) {
	s := freshOrg(t)
	a := NewApplier(s)
	ops := []Op{
		Insert{Dim: "Org", ID: "Dave", Name: "Dpt.Dave", Level: "Department",
			Start: y(2002), Parents: []core.MVID{"Sales"}},
		Exclude{Dim: "Org", ID: "no-such-member", At: y(2003)},
		Insert{Dim: "Org", ID: "Eve", Name: "Dpt.Eve", Level: "Department",
			Start: y(2003), Parents: []core.MVID{"Sales"}},
	}
	err := a.Apply(ops...)
	if err == nil {
		t.Fatal("batch with a bad operator should fail")
	}
	var ae *ApplyError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T, want *ApplyError", err)
	}
	if ae.Index != 1 || ae.Applied != 1 {
		t.Fatalf("ApplyError{Index: %d, Applied: %d}, want {1, 1}", ae.Index, ae.Applied)
	}
	if !strings.Contains(ae.Op, "no-such-member") {
		t.Fatalf("ApplyError.Op = %q, want the failing operator's description", ae.Op)
	}
	if ae.Unwrap() == nil {
		t.Fatal("ApplyError should wrap the operator error")
	}
	// The prefix before the failure was applied (non-transactional).
	if s.Dimension("Org").Version("Dave") == nil {
		t.Fatal("operator before the failure should have been applied")
	}
	if s.Dimension("Org").Version("Eve") != nil {
		t.Fatal("operator after the failure must not have been applied")
	}
	// Only the applied prefix is logged.
	if got := len(a.Log()); got != 1 {
		t.Fatalf("log length = %d, want 1", got)
	}
}

// TestRebindCarriesLog asserts that the clone's applier keeps the
// evolution history — the copy-on-write path the server uses.
func TestRebindCarriesLog(t *testing.T) {
	s := freshOrg(t)
	a := NewApplier(s)
	if err := a.Apply(Insert{Dim: "Org", ID: "Dave", Name: "Dpt.Dave",
		Level: "Department", Start: y(2002), Parents: []core.MVID{"Sales"}}); err != nil {
		t.Fatal(err)
	}

	clone := s.Clone()
	b := a.Rebind(clone)
	if got := len(b.Log()); got != 1 {
		t.Fatalf("rebound log length = %d, want 1", got)
	}
	if err := b.Apply(Insert{Dim: "Org", ID: "Eve", Name: "Dpt.Eve",
		Level: "Department", Start: y(2003), Parents: []core.MVID{"Sales"}}); err != nil {
		t.Fatal(err)
	}
	// The rebound applier mutates the clone, not the original, and its
	// log does not leak back.
	if s.Dimension("Org").Version("Eve") != nil {
		t.Fatal("rebound applier mutated the original schema")
	}
	if got := len(a.Log()); got != 1 {
		t.Fatalf("original log length = %d, want 1", got)
	}
	if got := len(b.Log()); got != 2 {
		t.Fatalf("rebound log length = %d, want 2", got)
	}
	if hist := b.History("Dave"); len(hist) != 1 {
		t.Fatalf("history of Dave on rebound applier = %v", hist)
	}
}

// TestRebindSharesLogWithoutAliasing: Rebind hands the child the
// parent's log without copying it (a fact batch rebinds on every write,
// and only an evolve ever appends), and what the child then applies
// never shows in the parent's log.
func TestRebindSharesLogWithoutAliasing(t *testing.T) {
	s := freshOrg(t)
	parent := NewApplier(s)
	insert := func(id core.MVID, year int) Op {
		return Insert{Dim: "Org", ID: id, Name: "Dpt." + string(id), Level: "Department",
			Start: y(year), Parents: []core.MVID{"Sales"}}
	}
	if err := parent.Apply(insert("A", 2002), insert("B", 2002)); err != nil {
		t.Fatal(err)
	}
	before := append([]LogEntry(nil), parent.Log()...)

	// Two children of one parent both append: with a shared backing array
	// and spare capacity the second would overwrite the first's entry.
	c1, c2 := parent.Rebind(s.Clone()), parent.Rebind(s.Clone())
	if _, err := c1.ApplyTouched(insert("C1", 2003)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ApplyTouched(insert("C2", 2003)); err != nil {
		t.Fatal(err)
	}
	if got := parent.Log(); len(got) != len(before) || got[0].Description != before[0].Description || got[1].Description != before[1].Description {
		t.Errorf("parent log changed by its children: %+v, was %+v", got, before)
	}
	if l1, l2 := c1.Log(), c2.Log(); len(l1) != 3 || len(l2) != 3 ||
		!strings.Contains(l1[2].Description, "C1") || !strings.Contains(l2[2].Description, "C2") || l1[2].Seq != 3 {
		t.Errorf("children's logs = %+v and %+v", l1, l2)
	}

	allocs := func(a *Applier) float64 {
		return testing.AllocsPerRun(100, func() { a.Rebind(s) })
	}
	long := NewApplierWithLog(s, make([]LogEntry, 10000))
	if short, grown := allocs(parent), allocs(long); grown > short {
		t.Errorf("Rebind allocates %v objects on a 2-entry log and %v on a 10000-entry log", short, grown)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 100; i++ {
		long.Rebind(s)
	}
	runtime.ReadMemStats(&m1)
	bytesPer := (m1.TotalAlloc - m0.TotalAlloc) / 100
	if bytesPer > 256 {
		t.Errorf("Rebind on a 10000-entry log allocates %d bytes: it copies the log", bytesPer)
	}
}
