package obs

import (
	"context"
	"testing"
)

func TestTraceTree(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "query")
	pctx, parse := StartSpan(ctx, "parse")
	parse.SetAttr("tokens", 7)
	parse.End()
	_ = pctx

	mctx, mat := StartSpan(ctx, "materialize")
	_, shard := StartSpan(mctx, "shard")
	shard.End()
	mat.End()
	root.End()

	n := root.Node()
	if n.Name != "query" {
		t.Fatalf("root name = %q", n.Name)
	}
	if got := n.Find("parse"); got == nil || got.Attrs["tokens"] != 7 {
		t.Fatalf("parse span missing or missing attrs: %#v", got)
	}
	if n.Find("materialize") == nil {
		t.Fatal("materialize span missing")
	}
	if n.Find("materialize").Find("shard") == nil {
		t.Fatal("shard should nest under materialize")
	}
	if n.Find("nope") != nil {
		t.Fatal("Find should return nil for unknown names")
	}
}

func TestNoTraceIsNoOp(t *testing.T) {
	ctx := context.Background()
	sctx, sp := StartSpan(ctx, "parse")
	if sp != nil {
		t.Fatal("StartSpan without a trace should return a nil span")
	}
	if sctx != ctx {
		t.Fatal("StartSpan without a trace should return the context unchanged")
	}
	// All nil-span methods are no-ops.
	sp.SetAttr("k", "v")
	sp.End()
	if sp.Node() != nil {
		t.Fatal("nil span Node should be nil")
	}
	var n *SpanNode
	if n.Find("x") != nil {
		t.Fatal("nil node Find should be nil")
	}
}

func TestEndTwiceKeepsFirstDuration(t *testing.T) {
	_, root := NewTrace(context.Background(), "q")
	root.End()
	d := root.Node().DurationMS
	root.End()
	if root.Node().DurationMS != d {
		t.Fatal("second End should not change the duration")
	}
}
