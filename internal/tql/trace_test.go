package tql

import (
	"context"
	"testing"

	"mvolap/internal/obs"
	"mvolap/internal/quality"
)

// TestRunContextTraceSpans asserts the acceptance criterion for query
// tracing: a traced SELECT produces a span tree containing at least
// the lex, parse, plan, resolve and aggregate stages.
func TestRunContextTraceSpans(t *testing.T) {
	s := caseSchema(t)
	ctx, root := obs.NewTrace(context.Background(), "query")
	out, err := RunCachedContext(ctx, s, "SELECT Amount BY Org.Division, TIME.YEAR MODE tcm", quality.DefaultWeights(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result == nil || out.Result.Len() == 0 {
		t.Fatal("traced query should still return rows")
	}
	root.End()
	n := root.Node()
	for _, stage := range []string{"lex", "parse", "plan", "resolve", "aggregate"} {
		if n.Find(stage) == nil {
			t.Errorf("trace missing %q span", stage)
		}
	}
	res := n.Find("resolve")
	if res.Attrs["mode"] != "tcm" || res.Attrs["dropped"] != 0 {
		t.Errorf("resolve attrs = %v, want mode=tcm and dropped=0", res.Attrs)
	}
	agg := n.Find("aggregate")
	if agg.Attrs["rows"] == nil {
		t.Errorf("aggregate attrs = %v, want a row count", agg.Attrs)
	}
}

// TestRunContextQualityTrace covers the QUALITY statement's rank span.
func TestRunContextQualityTrace(t *testing.T) {
	s := caseSchema(t)
	ctx, root := obs.NewTrace(context.Background(), "query")
	if _, err := RunCachedContext(ctx, s, "QUALITY SELECT Amount BY Org.Division, TIME.YEAR", quality.DefaultWeights(), nil); err != nil {
		t.Fatal(err)
	}
	root.End()
	n := root.Node()
	if n.Find("rank") == nil {
		t.Error("QUALITY trace missing rank span")
	}
	if n.Find("plan") == nil {
		t.Error("QUALITY trace missing plan span")
	}
}

// TestRunWithoutTraceStillWorks pins the nil-span fast path: running
// without a trace on the context must not panic or change results.
func TestRunWithoutTraceStillWorks(t *testing.T) {
	s := caseSchema(t)
	out, err := RunCachedContext(context.Background(), s, "SELECT Amount BY Org.Division, TIME.YEAR MODE tcm", quality.DefaultWeights(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Len() == 0 {
		t.Fatal("expected rows")
	}
}
