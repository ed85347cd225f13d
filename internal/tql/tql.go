// Package tql implements a small temporal query language in the spirit
// of the TOLAP language of Mendelzon & Vaisman that the paper builds
// on: the user states what to aggregate, how to group it, and — the
// paper's key contribution — in which Temporal Mode of Presentation the
// data should be presented.
//
// Grammar:
//
//	query   := SELECT measures BY axes [WHERE time] [MODE mode]
//	         | MODES
//	         | QUALITY SELECT ... (ranks all modes by quality factor)
//	         | EXPLAIN id [, id]... AT instant [MODE mode]  (value lineage, §5.2)
//	measures:= '*' | name (',' name)*
//	axes    := axis (',' axis)*
//	axis    := dim '.' level | TIME '.' (YEAR|QUARTER|MONTH|ALL)
//	time    := cond (AND cond)*
//	cond    := TIME BETWEEN instant AND instant | dim IN name (',' name)*
//	instant := year | 'MM/YYYY'
//	mode    := TCM | Vn | VERSION AT instant
//
// Examples (the paper's Q1 and Q2):
//
//	SELECT Amount BY Org.Division, TIME.YEAR WHERE TIME BETWEEN 2001 AND 2002 MODE tcm
//	SELECT Amount BY Org.Department, TIME.YEAR WHERE TIME BETWEEN 2002 AND 2003 MODE VERSION AT 2002
package tql

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"mvolap/internal/core"
	"mvolap/internal/metadata"
	"mvolap/internal/obs"
	"mvolap/internal/quality"
	"mvolap/internal/temporal"
)

// Statement is a parsed TQL statement.
type Statement struct {
	Kind StatementKind
	// Select fields (valid for KindSelect and KindQuality).
	Measures []string // empty means all
	Axes     []Axis
	Grain    core.TimeGrain
	HasRange bool
	Range    temporal.Interval
	// Mode is the MODE clause (every kind but MODES).
	Mode ModeClause
	// Filters are the WHERE <dim> IN (...) dice conditions.
	Filters []Filter
	// Explain fields (valid for KindExplain).
	ExplainCoords []core.MVID
	ExplainAt     temporal.Instant
}

// ModeClause is a statement's temporal mode of presentation as written:
// its zero value is tcm, which a statement without a MODE clause asks
// for too; Version names a structure version by ID (MODE V2); ByInstant
// asks for the version valid at At (MODE VERSION AT 2002).
type ModeClause struct {
	Version   string
	At        temporal.Instant
	ByInstant bool
}

// Filter is one dice condition: a dimension restricted to members by
// display name.
type Filter struct {
	Dim     core.DimID
	Members []string
}

// StatementKind distinguishes the statement forms.
type StatementKind uint8

// The statement kinds.
const (
	KindSelect StatementKind = iota
	KindModes
	KindQuality
	KindExplain
)

// Axis is one BY item.
type Axis struct {
	Dim   core.DimID
	Level string
	Time  bool // a TIME axis; Level then names the grain
}

// Parse parses a TQL statement.
func Parse(input string) (*Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	return parseTokens(toks)
}

// parseTokens parses a lexed token stream; split from Parse so the
// traced execution path can time the lex and parse stages separately.
func parseTokens(toks []token) (*Statement, error) {
	p := &parser{toks: toks}
	switch {
	case p.kw("MODES"):
		if !p.eof() {
			return nil, fmt.Errorf("tql: trailing input after MODES")
		}
		return &Statement{Kind: KindModes}, nil
	case p.kw("QUALITY"):
		st, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Kind = KindQuality
		return st, nil
	case p.kw("EXPLAIN"):
		return p.parseExplain()
	default:
		return p.parseSelect()
	}
}

type token struct {
	text  string
	punct bool
}

// lex splits s into tokens. It lexes twice, counting the tokens and
// then filling a slice allocated once at that size.
func lex(s string) ([]token, error) {
	n := 0
	for i := 0; ; n++ {
		var err error
		if _, i, err = nextToken(s, i); err != nil {
			return nil, err
		} else if i < 0 {
			break
		}
	}
	out := make([]token, n)
	for k, i := 0, 0; k < n; k++ {
		out[k], i, _ = nextToken(s, i)
	}
	return out, nil
}

// nextToken returns the first token at or after offset i of s and the
// offset past it; next is -1 when only whitespace is left.
func nextToken(s string, i int) (tok token, next int, err error) {
	for i < len(s) && strings.IndexByte(" \t\n\r", s[i]) >= 0 {
		i++
	}
	if i == len(s) {
		return token{}, -1, nil
	}
	switch c := s[i]; {
	case c == ',' || c == '.' || c == '*':
		return token{s[i : i+1], true}, i + 1, nil
	case c == '\'':
		j := strings.IndexByte(s[i+1:], '\'')
		if j < 0 {
			return token{}, -1, fmt.Errorf("tql: unterminated quoted token")
		}
		return token{s[i+1 : i+1+j], false}, i + j + 2, nil
	}
	j := i
	for j < len(s) && strings.IndexByte(" \t\n\r,.*'", s[j]) < 0 {
		j++
	}
	return token{s[i:j], false}, j, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() (token, bool) {
	if p.eof() {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) next() (token, error) {
	t, ok := p.peek()
	if !ok {
		return token{}, fmt.Errorf("tql: unexpected end of input")
	}
	p.pos++
	return t, nil
}

func (p *parser) kw(s string) bool {
	t, ok := p.peek()
	if ok && !t.punct && strings.EqualFold(t.text, s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) punct(s string) bool {
	t, ok := p.peek()
	if ok && t.punct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) parseSelect() (*Statement, error) {
	if !p.kw("SELECT") {
		return nil, fmt.Errorf("tql: expected SELECT")
	}
	st := &Statement{Kind: KindSelect, Grain: core.GrainYear}
	// Measures.
	if p.punct("*") {
		// all measures
	} else {
		for {
			t, err := p.next()
			if err != nil {
				return nil, err
			}
			if t.punct {
				return nil, fmt.Errorf("tql: expected measure name, got %q", t.text)
			}
			st.Measures = append(st.Measures, t.text)
			if !p.punct(",") {
				break
			}
		}
	}
	if !p.kw("BY") {
		return nil, fmt.Errorf("tql: expected BY")
	}
	timeSeen := false
	for {
		dimTok, err := p.next()
		if err != nil {
			return nil, err
		}
		if dimTok.punct {
			return nil, fmt.Errorf("tql: expected axis, got %q", dimTok.text)
		}
		if !p.punct(".") {
			return nil, fmt.Errorf("tql: axis %q needs a level (dim.Level)", dimTok.text)
		}
		lvlTok, err := p.next()
		if err != nil {
			return nil, err
		}
		if strings.EqualFold(dimTok.text, "TIME") {
			if timeSeen {
				return nil, fmt.Errorf("tql: duplicate TIME axis")
			}
			timeSeen = true
			switch strings.ToUpper(lvlTok.text) {
			case "YEAR":
				st.Grain = core.GrainYear
			case "QUARTER":
				st.Grain = core.GrainQuarter
			case "MONTH":
				st.Grain = core.GrainMonth
			case "ALL":
				st.Grain = core.GrainAll
			default:
				return nil, fmt.Errorf("tql: unknown TIME level %q", lvlTok.text)
			}
			st.Axes = append(st.Axes, Axis{Time: true, Level: strings.ToUpper(lvlTok.text)})
		} else {
			st.Axes = append(st.Axes, Axis{Dim: core.DimID(dimTok.text), Level: lvlTok.text})
		}
		if !p.punct(",") {
			break
		}
	}
	if p.kw("WHERE") {
		for {
			if p.kw("TIME") {
				if st.HasRange {
					return nil, fmt.Errorf("tql: duplicate TIME condition")
				}
				if !p.kw("BETWEEN") {
					return nil, fmt.Errorf("tql: expected BETWEEN after TIME")
				}
				from, err := p.parseInstant(false)
				if err != nil {
					return nil, err
				}
				if !p.kw("AND") {
					return nil, fmt.Errorf("tql: expected AND in TIME BETWEEN")
				}
				to, err := p.parseInstant(true)
				if err != nil {
					return nil, err
				}
				st.HasRange = true
				st.Range = temporal.Between(from, to)
				if st.Range.Empty() {
					return nil, fmt.Errorf("tql: empty time range %v", st.Range)
				}
			} else {
				dimTok, err := p.next()
				if err != nil {
					return nil, err
				}
				if dimTok.punct {
					return nil, fmt.Errorf("tql: expected condition, got %q", dimTok.text)
				}
				if !p.kw("IN") {
					return nil, fmt.Errorf("tql: expected IN after %q", dimTok.text)
				}
				f := Filter{Dim: core.DimID(dimTok.text)}
				for {
					name, err := p.dottedName()
					if err != nil {
						return nil, err
					}
					f.Members = append(f.Members, name)
					if !p.punct(",") {
						break
					}
				}
				st.Filters = append(st.Filters, f)
			}
			if !p.kw("AND") {
				break
			}
		}
	}
	if err := p.parseMode(st); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseExplain() (*Statement, error) {
	st := &Statement{Kind: KindExplain}
	for {
		id, err := p.dottedName()
		if err != nil {
			return nil, err
		}
		st.ExplainCoords = append(st.ExplainCoords, core.MVID(id))
		if !p.punct(",") {
			break
		}
	}
	if !p.kw("AT") {
		return nil, fmt.Errorf("tql: expected AT in EXPLAIN")
	}
	at, err := p.parseInstant(false)
	if err != nil {
		return nil, err
	}
	st.ExplainAt = at
	if err := p.parseMode(st); err != nil {
		return nil, err
	}
	return st, nil
}

// parseMode reads the statement's optional closing MODE clause into
// st.Mode; nothing may follow it.
func (p *parser) parseMode(st *Statement) error {
	switch {
	case !p.kw("MODE"), p.kw("TCM"):
		// tcm, the zero clause
	case p.kw("VERSION"):
		if !p.kw("AT") {
			return fmt.Errorf("tql: expected AT after VERSION")
		}
		at, err := p.parseInstant(false)
		if err != nil {
			return err
		}
		st.Mode = ModeClause{At: at, ByInstant: true}
	default:
		t, err := p.next()
		if err != nil {
			return err
		}
		if t.text == "" {
			return fmt.Errorf("tql: empty structure version ID")
		}
		st.Mode = ModeClause{Version: t.text}
	}
	if !p.eof() {
		t, _ := p.peek()
		return fmt.Errorf("tql: trailing input at %q", t.text)
	}
	return nil
}

// dottedName reads a name that may contain dots (which the lexer
// splits for the dim.Level syntax) and rejoins them.
func (p *parser) dottedName() (string, error) {
	t, err := p.next()
	if err != nil {
		return "", err
	}
	if t.punct {
		return "", fmt.Errorf("tql: expected name, got %q", t.text)
	}
	name := t.text
	for p.punct(".") {
		nt, err := p.next()
		if err != nil {
			return "", err
		}
		if nt.punct {
			return "", fmt.Errorf("tql: bad name around %q", name)
		}
		name += "." + nt.text
	}
	return name, nil
}

// parseInstant accepts "2001" (start or end of year depending on
// endOfRange) or "MM/YYYY".
func (p *parser) parseInstant(endOfRange bool) (temporal.Instant, error) {
	t, err := p.next()
	if err != nil {
		return 0, err
	}
	if strings.Contains(t.text, "/") {
		return temporal.ParseInstant(t.text)
	}
	yr, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("tql: bad instant %q", t.text)
	}
	if endOfRange {
		return temporal.EndOfYear(yr), nil
	}
	return temporal.Year(yr), nil
}

// Plan turns a parsed SELECT into a core query against the schema. A
// statement without WHERE TIME ranges over temporal.Always.
func (st *Statement) Plan(s *core.Schema) (core.Query, error) {
	if st.Kind == KindModes {
		return core.Query{}, fmt.Errorf("tql: MODES has no query plan")
	}
	q := core.Query{
		Measures: st.Measures,
		Grain:    st.Grain,
		Range:    temporal.Always,
	}
	if st.HasRange {
		q.Range = st.Range
	}
	for _, f := range st.Filters {
		if s.Dimension(f.Dim) == nil {
			return core.Query{}, fmt.Errorf("tql: unknown dimension %q in filter", f.Dim)
		}
		q.Filters = append(q.Filters, core.Filter{Dim: f.Dim, Members: f.Members})
	}
	for _, ax := range st.Axes {
		if ax.Time {
			continue
		}
		if s.Dimension(ax.Dim) == nil {
			return core.Query{}, fmt.Errorf("tql: unknown dimension %q", ax.Dim)
		}
		q.GroupBy = append(q.GroupBy, core.GroupBy{Dim: ax.Dim, Level: ax.Level})
	}
	mode, err := st.resolveMode(s)
	if err != nil {
		return core.Query{}, err
	}
	q.Mode = mode
	return q, nil
}

// resolveMode maps the statement's mode clause onto the schema.
func (st *Statement) resolveMode(s *core.Schema) (core.Mode, error) {
	switch mc := st.Mode; {
	case mc.ByInstant:
		sv := s.VersionAt(mc.At)
		if sv == nil {
			return core.Mode{}, fmt.Errorf("tql: no structure version at %s", mc.At)
		}
		return core.InVersion(sv), nil
	case mc.Version != "":
		sv := s.VersionByID(mc.Version)
		if sv == nil {
			return core.Mode{}, fmt.Errorf("tql: unknown structure version %q", mc.Version)
		}
		return core.InVersion(sv), nil
	}
	return core.TCM(), nil
}

// ModeQuality is one line of a QUALITY ranking: a temporal mode and the
// quality factor of the statement's result in it.
type ModeQuality struct {
	Mode    core.Mode
	Quality float64
}

// Output is the result of running a TQL statement.
type Output struct {
	// Result is set for SELECT.
	Result *core.Result
	// Quality is set for SELECT (the Q factor of the result under
	// default weights) and for QUALITY rankings.
	Quality float64
	// Ranking is set for QUALITY, best first.
	Ranking []ModeQuality
	// Modes is set for MODES.
	Modes []core.Mode
	// Lineage is set for EXPLAIN: the §5.2 provenance of the cell,
	// already rendered.
	Lineage string

	// rendered holds a serving tier's encoded form of this output; see
	// RenderOnce. It rides along with result-cache entries, so a cache
	// hit skips response encoding as well as the scan.
	rendered atomic.Pointer[[]byte]
}

// RenderOnce returns the output's cached encoded form, invoking render
// to produce it on first use. Outputs are frozen once built, so any
// deterministic rendering is computed at most once per output (modulo a
// benign race) no matter how many times the result cache serves it.
func (o *Output) RenderOnce(render func() []byte) []byte {
	if b := o.rendered.Load(); b != nil {
		return *b
	}
	b := render()
	o.rendered.Store(&b)
	return b
}

// Run executes a TQL statement against the schema using the default
// §5.2 confidence weights, without a result cache.
func Run(s *core.Schema, input string) (*Output, error) {
	return RunCachedContext(context.Background(), s, input, quality.DefaultWeights(), nil)
}

// RunCachedContext executes a TQL statement with user-pondered
// confidence weights (the pds function of §5.2), which drive both
// per-result quality factors and QUALITY rankings. ctx cancellation
// (client disconnect, per-request deadline) stops the scan promptly,
// and an obs trace on ctx records per-stage spans (lex, parse, plan,
// query_cache, resolve, aggregate, …).
//
// A SELECT probes the result cache under its plan's key
// (core.Query.Key) and the weights, validated against the serving
// schema's swap identity; a hit returns the frozen cached output with
// zero scan. A QUALITY ranking is the same SELECT asked once per
// temporal mode, each through that probe, so its per-mode results
// enter the cache and a later SELECT in one of the modes hits. A nil
// cache disables caching. Cached outputs are shared — callers must not
// mutate them.
func RunCachedContext(ctx context.Context, s *core.Schema, input string, w quality.Weights, cache *ResultCache) (*Output, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	_, lexSpan := obs.StartSpan(ctx, "lex")
	toks, err := lex(input)
	lexSpan.SetAttr("tokens", len(toks))
	lexSpan.End()
	if err != nil {
		return nil, err
	}
	_, parseSpan := obs.StartSpan(ctx, "parse")
	st, err := parseTokens(toks)
	parseSpan.End()
	if err != nil {
		return nil, err
	}
	switch st.Kind {
	case KindModes:
		return &Output{Modes: s.Modes()}, nil
	case KindExplain:
		_, sp := obs.StartSpan(ctx, "explain")
		defer sp.End()
		mode, err := st.resolveMode(s)
		if err != nil {
			return nil, err
		}
		steps, err := metadata.Explain(ctx, s, mode, core.Coords(st.ExplainCoords), st.ExplainAt)
		if err != nil {
			return nil, err
		}
		text := metadata.RenderLineage(s, steps)
		if text == "" {
			text = "no source data feeds this cell\n"
		}
		return &Output{Lineage: text}, nil
	case KindQuality:
		q, err := planSpanned(ctx, st, s)
		if err != nil {
			return nil, err
		}
		rctx, sp := obs.StartSpan(ctx, "rank")
		defer sp.End()
		modes := s.Modes()
		sp.SetAttr("modes", len(modes))
		// Ties keep s.Modes()'s order: tcm first, then earlier versions.
		out := &Output{Ranking: make([]ModeQuality, 0, len(modes))}
		for _, m := range modes {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			q.Mode = m
			o, err := runSelect(rctx, s, q, w, cache)
			if err != nil {
				return nil, err
			}
			out.Ranking = append(out.Ranking, ModeQuality{Mode: m, Quality: o.Quality})
		}
		slices.SortStableFunc(out.Ranking, func(a, b ModeQuality) int { return cmp.Compare(b.Quality, a.Quality) })
		if len(out.Ranking) > 0 {
			out.Quality = out.Ranking[0].Quality
		}
		return out, nil
	default:
		q, err := planSpanned(ctx, st, s)
		if err != nil {
			return nil, err
		}
		return runSelect(ctx, s, q, w, cache)
	}
}

// runSelect answers one planned SELECT: it probes the cache under the
// plan's key, scans on a miss and puts what it scanned under the
// plan's range.
func runSelect(ctx context.Context, s *core.Schema, q core.Query, w quality.Weights, cache *ResultCache) (*Output, error) {
	var key cacheKey
	if cache != nil {
		_, sp := obs.StartSpan(ctx, "query_cache")
		key = cacheKey{plan: q.Key(), w: w}
		out, ok := cache.get(key, s.SwapID())
		sp.SetAttr("hit", ok)
		sp.End()
		if ok {
			metCacheHits.Inc()
			return out, nil
		}
		metCacheMisses.Inc()
	}
	res, err := s.ExecuteContext(ctx, q)
	if err != nil {
		return nil, err
	}
	out := &Output{Result: res, Quality: quality.Of(res, w)}
	if cache != nil {
		cache.put(key, s.SwapID(), q.Range, out)
	}
	return out, nil
}

// planSpanned wraps Statement.Plan in a "plan" span.
func planSpanned(ctx context.Context, st *Statement, s *core.Schema) (core.Query, error) {
	_, sp := obs.StartSpan(ctx, "plan")
	defer sp.End()
	q, err := st.Plan(s)
	if err == nil {
		sp.SetAttr("mode", q.Mode.String())
	}
	return q, err
}

// Render renders an output as text: a result table with confidence
// codes and quality, a mode list, or a quality ranking.
func Render(out *Output) string {
	var b strings.Builder
	switch {
	case out.Lineage != "":
		b.WriteString(out.Lineage)
	case out.Modes != nil:
		b.WriteString("temporal modes of presentation:\n")
		for _, m := range out.Modes {
			if m.Kind == core.VersionKind {
				fmt.Fprintf(&b, "  %s %s\n", m.Version.ID, m.Version.Valid)
			} else {
				b.WriteString("  tcm (temporally consistent)\n")
			}
		}
	case out.Ranking != nil:
		b.WriteString("mode ranking by quality factor:\n")
		for _, r := range out.Ranking {
			fmt.Fprintf(&b, "  %-4s Q=%.3f\n", r.Mode, r.Quality)
		}
	case out.Result != nil:
		res := out.Result
		b.WriteString("time")
		for _, g := range res.GroupNames {
			b.WriteString(" | " + g)
		}
		for _, m := range res.MeasureNames {
			b.WriteString(" | " + m)
		}
		b.WriteString("\n")
		for i := range res.Len() {
			b.WriteString(res.TimeKey(i))
			for ai := range res.GroupNames {
				b.WriteString(" | " + res.Group(i, ai))
			}
			values, cfs := res.Values(i), res.CFs(i)
			for k := range res.MeasureNames {
				fmt.Fprintf(&b, " | %s (%s)", core.FormatValue(values[k]), cfs[k])
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "mode=%s quality=%.3f\n", res.Mode, out.Quality)
	}
	return b.String()
}
