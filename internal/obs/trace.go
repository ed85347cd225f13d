package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed stage of a request: lex, parse, plan, resolve,
// aggregate, … Spans form a tree rooted at the span installed by
// NewTrace. All methods are nil-safe, so instrumented code paths pay
// nothing (and branch nowhere) when the request carries no trace.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []attr
	children []*Span
}

type attr struct {
	key   string
	value any
}

type ctxKey struct{}

// NewTrace starts recording a span tree for the request and returns
// the derived context plus the root span. The caller ends the root
// span and renders it with Node once the request completes.
func NewTrace(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{name: name, start: time.Now()}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// StartSpan opens a child span under the context's current span. When
// the context carries no trace it returns the context unchanged and a
// nil span, whose methods are all no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, ok := ctx.Value(ctxKey{}).(*Span)
	if !ok {
		return ctx, nil
	}
	sp := &Span{name: name, start: time.Now()}
	parent.mu.Lock()
	parent.children = append(parent.children, sp)
	parent.mu.Unlock()
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// End closes the span, fixing its duration. Ending twice keeps the
// first duration.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if !sp.ended {
		sp.dur = time.Since(sp.start)
		sp.ended = true
	}
	sp.mu.Unlock()
}

// SetAttr attaches a key/value annotation to the span (fact counts,
// cache verdicts, mode names, …).
func (sp *Span) SetAttr(key string, value any) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.attrs = append(sp.attrs, attr{key: key, value: value})
	sp.mu.Unlock()
}

// SpanNode is the JSON rendering of a span subtree, returned inline in
// query responses when ?trace=1 is set.
type SpanNode struct {
	Name       string         `json:"name"`
	DurationMS float64        `json:"durationMs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*SpanNode    `json:"children,omitempty"`
}

// Node snapshots the span subtree. Un-ended spans render with their
// duration so far.
func (sp *Span) Node() *SpanNode {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	d := sp.dur
	if !sp.ended {
		d = time.Since(sp.start)
	}
	n := &SpanNode{
		Name:       sp.name,
		DurationMS: float64(d) / float64(time.Millisecond),
	}
	if len(sp.attrs) > 0 {
		n.Attrs = make(map[string]any, len(sp.attrs))
		for _, a := range sp.attrs {
			n.Attrs[a.key] = a.value
		}
	}
	children := append([]*Span(nil), sp.children...)
	sp.mu.Unlock()
	for _, c := range children {
		n.Children = append(n.Children, c.Node())
	}
	return n
}

// Find returns the first descendant span node (including n itself)
// with the given name, or nil — a convenience for tests asserting
// trace shape.
func (n *SpanNode) Find(name string) *SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}
