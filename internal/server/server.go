// Package server is the front-end tier of the Figure-1 architecture: an
// HTTP service exposing the temporal multidimensional warehouse to
// analysis tools. It answers TQL queries as JSON (values paired with
// their §5.2 confidence factors and the result's quality factor), lists
// the temporal modes of presentation, serves the Table-12 mapping
// metadata, and — when enabled — applies evolution scripts.
//
// Endpoints:
//
//	GET  /query?q=<TQL>     run a statement; JSON result (&trace=1 adds spans)
//	GET  /modes             the set TMP of temporal modes
//	GET  /schema            dimensions, levels, measures, mappings
//	POST /evolve            apply an evolution script (requires enabling)
//	POST /facts             append a fact batch (requires enabling)
//	POST /facts/retract     remove a batch of facts by address (requires enabling)
//	POST /admin/snapshot    durably snapshot the warehouse (requires a store)
//	GET  /wal/snapshot      latest snapshot bytes (follower bootstrap; requires a store)
//	GET  /wal/stream        stream committed WAL frames from ?from=<seq> (requires a store)
//	GET  /healthz           liveness
//	GET  /readyz            readiness: 503 until recovery completes
//	GET  /metrics           Prometheus text-format metrics
//	GET  /debug/vars        the same metrics as JSON
//	GET  /debug/pprof/      pprof handlers (requires WithPprof)
//
// Queries run lock-free on an immutable schema snapshot, and never block
// on evolution: reading the served pointer waits for no write, only for
// another write's pointer swap. The three write endpoints are one
// pipeline (docs/persistence.md, "The write path"): the request body is
// parsed into a store.Mutation, and under the writer mutex the store's
// commit routine clones the served schema, applies the whole batch to
// the clone, appends it to the write-ahead log and warms the clone from
// the schema it replaces; only then is the clone swapped in. Readers
// never observe a mutating or partially applied structure, and a batch
// with one element that does not apply leaves the served schema
// untouched (422, with the element named).
//
// With a store attached (Install) the append comes after the batch has
// applied whole and before the clone is served, so the durable history
// never records a state that was not served, and a batch that fails to
// apply, or whose append fails (500), is never logged and never served.
// Crash recovery and followers replay the log through the same commit
// routine, which is why a recovered or replicated warehouse answers
// byte for byte like the one that served the writes. Whatever produced
// it, a generation goes into service through one routine, publish,
// which records the last WAL sequence it contains: /readyz reports that
// sequence, and ?minWalSeq= is a read-your-writes barrier on it.
//
// A server built WithReplica is a read-only follower: it serves
// /query, /modes and /schema from state replicated off a leader's
// WAL stream, answers 403 with the leader's address on every
// mutating endpoint, and reports replication lag on /readyz. See
// docs/replication.md.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/metadata"
	"mvolap/internal/obs"
	"mvolap/internal/quality"
	"mvolap/internal/store"
	"mvolap/internal/tql"
)

// StatusClientClosedRequest is the non-standard (nginx) status code
// reported when a client disconnects before its query completes.
const StatusClientClosedRequest = 499

// Server wraps a schema with HTTP handlers.
type Server struct {
	// mu guards the published pointers below (schema, applier,
	// servedSeq, served, store) and is held only to read or
	// swap them: handlers snapshot the pointers under a brief read-lock
	// and run on the snapshot, so query execution never holds it and a
	// reader never waits out a write.
	mu sync.RWMutex
	// writeMu serializes the writers — commit, Install, the replica's
	// publish callback and the admin and bootstrap snapshots. A writer
	// reads the published pointers under writeMu alone (only writers
	// change them) and takes mu just for the swap.
	writeMu sync.Mutex
	schema  *core.Schema
	applier *evolution.Applier
	// servedSeq is the last WAL record the served schema contains, and
	// served is closed and replaced on every publish, waking the
	// ?minWalSeq= barriers waiting for it.
	servedSeq   uint64
	served      chan struct{}
	store       *store.Store
	allowEvolve bool
	// replica is set on a read-only follower: mutations 403 to the
	// leader, /readyz reports lag, ?minWalSeq= waits on the apply loop.
	replica *store.Replica

	logger       *slog.Logger
	queryTimeout time.Duration
	slowQuery    time.Duration
	enablePprof  bool

	// queryCache serves repeated SELECTs with zero scan. Entries carry
	// the served schema's swap identity, so every generation publish
	// swaps in — a write, Install after recovery, a follower's
	// bootstrap and each record it applies — invalidates them by
	// construction; publish also reconciles them eagerly. nil when
	// disabled.
	queryCache     *tql.ResultCache
	queryCacheSize int

	// modes holds GET /modes' body for the generation that rendered it
	// last: TMP changes only with the structure versions, so a page is
	// rendered once per published generation, by its first GET.
	modes atomic.Pointer[modesPage]

	// closing is closed by Stop to end long-lived replication streams
	// ahead of a graceful shutdown (Shutdown waits for handlers).
	closing   chan struct{}
	closeOnce sync.Once

	// parkCommit, when set, runs inside commit after the store's commit
	// routine and before publish, with writeMu held: tests park a write
	// there. nil outside tests.
	parkCommit func()
}

// Option configures the server.
type Option func(*Server)

// WithEvolution enables the POST /evolve endpoint.
func WithEvolution() Option {
	return func(s *Server) { s.allowEvolve = true }
}

// WithLogger sets the structured logger for the access, slow-query and
// evolution logs. The default is slog.Default().
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithQueryTimeout sets a per-request deadline for /query; 0 (the
// default) means no deadline. Expired queries stop scanning promptly
// and return 504.
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Server) { s.queryTimeout = d }
}

// WithSlowQueryThreshold sets the latency above which a /query request
// is counted and logged as slow; 0 disables the slow-query log. The
// default is 500ms.
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(s *Server) { s.slowQuery = d }
}

// WithPprof mounts net/http/pprof under /debug/pprof/.
func WithPprof() Option {
	return func(s *Server) { s.enablePprof = true }
}

// DefaultQueryCacheSize bounds the TQL result cache when WithQueryCache
// is not given.
const DefaultQueryCacheSize = 4096

// WithQueryCache bounds the TQL result cache to n entries; n <= 0
// disables result caching entirely.
func WithQueryCache(n int) Option {
	return func(s *Server) { s.queryCacheSize = n }
}

// New creates a server over the schema. A nil schema creates a server
// that is not yet ready: /healthz answers but /readyz and every
// warehouse endpoint return 503 until Install publishes a recovered
// warehouse — this lets the daemon listen (and be probed) while crash
// recovery replays the write-ahead log.
func New(sch *core.Schema, opts ...Option) *Server {
	s := &Server{
		logger:         slog.Default(),
		slowQuery:      500 * time.Millisecond,
		queryCacheSize: DefaultQueryCacheSize,
		served:         make(chan struct{}),
		closing:        make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if s.queryCacheSize > 0 {
		s.queryCache = tql.NewResultCache(s.queryCacheSize)
	}
	if sch != nil {
		s.publish(sch, evolution.NewApplier(sch), core.Delta{}, 0)
	}
	return s
}

// Stop ends the server's long-lived replication streams so a graceful
// http.Server.Shutdown can drain; followers reconnect elsewhere (or
// to the restarted process) on their own. Idempotent.
func (s *Server) Stop() {
	s.closeOnce.Do(func() { close(s.closing) })
}

// Install publishes a recovered warehouse: the schema, the applier
// carrying its recovered evolution log (nil for a fresh one), and the
// store that subsequent mutations append to (nil to serve without
// durability). Nothing is known about what changed since the previous
// generation, so every result-cache entry computed against it goes.
// After Install the server reports ready.
func (s *Server) Install(sch *core.Schema, applier *evolution.Applier, st *store.Store) {
	if applier == nil {
		applier = evolution.NewApplier(sch)
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	var seq uint64
	s.mu.Lock()
	s.store = st
	if st != nil {
		seq = st.LastSeq()
	}
	s.mu.Unlock()
	s.publish(sch, applier, core.Delta{Reroutes: true}, seq)
}

// publish swaps in the generation the server serves: sch with its
// applier ap, made from the served generation by delta, containing
// every WAL record up to seq. It is the one place a generation goes
// into service — a leader's write, Install after recovery, a
// follower's bootstrap and each record it applies — so the sequence a
// ?minWalSeq= barrier or /readyz reads is always the one served. The
// caller holds writeMu (New, before the server is shared, needs none).
// It returns the number of result-cache entries the swap dropped.
func (s *Server) publish(sch *core.Schema, ap *evolution.Applier, delta core.Delta, seq uint64) int {
	var prevID uint64
	s.mu.Lock()
	if s.schema != nil {
		prevID = s.schema.SwapID()
	}
	s.schema, s.applier, s.servedSeq = sch, ap, seq
	close(s.served)
	s.served = make(chan struct{})
	s.mu.Unlock()
	columns, index, stats := sch.Facts().Bytes()
	metFactStoreBytes.With("columns").Set(int64(columns))
	metFactStoreBytes.With("index").Set(int64(index))
	metFactStoreBytes.With("stats").Set(int64(stats))
	// Cached SELECTs the delta provably cannot affect (a time range that
	// cannot see the batch's window) are revalidated rather than dropped.
	return s.queryCache.Invalidate(prevID, sch.SwapID(), delta)
}

// snapshot returns the schema to serve this request from. The pointer
// is immutable once published (evolution swaps in a fresh clone), so
// the caller runs without holding any server lock; taking it waits for
// a swap at most, never for a write in progress. It is nil until a
// schema is installed.
func (s *Server) snapshot() *core.Schema {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.schema
}

// notReady answers 503 and reports true while no schema is installed
// (crash recovery still replaying).
func (s *Server) notReady(w http.ResponseWriter) bool {
	if s.snapshot() != nil {
		return false
	}
	jsonError(w, http.StatusServiceUnavailable, errNotReady)
	return true
}

var errNotReady = errors.New("recovering: warehouse not yet available")

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(endpoint, h))
	}
	handle("GET /healthz", "/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	handle("GET /readyz", "/readyz", s.handleReadyz)
	handle("GET /{$}", "/", s.handleIndex)
	handle("GET /query", "/query", s.handleQuery)
	handle("GET /modes", "/modes", s.handleModes)
	handle("GET /schema", "/schema", s.handleSchema)
	handle("POST /evolve", "/evolve", s.handleWrite(store.RecordEvolve))
	handle("POST /facts", "/facts", s.handleWrite(store.RecordFacts))
	handle("POST /facts/retract", "/facts/retract", s.handleWrite(store.RecordRetract))
	handle("POST /admin/snapshot", "/admin/snapshot", s.handleAdminSnapshot)
	handle("GET /wal/stream", "/wal/stream", s.handleWALStream)
	handle("GET /wal/snapshot", "/wal/snapshot", s.handleWALSnapshot)
	handle("GET /metrics", "/metrics", handleMetrics)
	handle("GET /debug/vars", "/debug/vars", handleDebugVars)
	if s.enablePprof {
		handle("GET /debug/pprof/", "/debug/pprof/", pprof.Index)
		handle("GET /debug/pprof/cmdline", "/debug/pprof/", pprof.Cmdline)
		handle("GET /debug/pprof/profile", "/debug/pprof/", pprof.Profile)
		handle("GET /debug/pprof/symbol", "/debug/pprof/", pprof.Symbol)
		handle("GET /debug/pprof/trace", "/debug/pprof/", pprof.Trace)
	}
	return mux
}

// handleReadyz is the readiness probe, distinct from /healthz
// liveness: the process is alive during crash recovery (or a
// follower's bootstrap) but must not receive traffic until a
// warehouse is installed. On a leader the response carries walSeq, the
// last WAL record the served schema contains; on a follower, the
// replication lag: the seq delta behind the leader plus the wall-clock
// age of the applied frontier.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.snapshot() == nil {
		if s.replica != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{
				"status":      "bootstrapping",
				"role":        "follower",
				"replication": s.replica.Status(),
			})
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "recovering")
		return
	}
	s.mu.RLock()
	st, seq := s.store, s.servedSeq
	s.mu.RUnlock()
	resp := map[string]any{"status": "ready"}
	switch {
	case s.replica != nil:
		resp["role"] = "follower"
		resp["replication"] = s.replica.Status()
	case st != nil:
		resp["role"] = "leader"
		resp["walSeq"] = seq
	}
	writeJSON(w, resp)
}

// handleMetrics serves the process registry in the Prometheus text
// exposition format.
func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default().WritePrometheus(w)
}

// handleDebugVars serves the same registry as expvar-style JSON.
func handleDebugVars(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, obs.Default().Snapshot())
}

// handleIndex serves a minimal front-end page: a TQL form posting to
// /query, in the spirit of the paper's analysis client.
func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html>
<html><head><title>mvolap</title></head>
<body>
<h1>mvolap — multiversion temporal OLAP</h1>
<p>Query the warehouse in any temporal mode of presentation
(Body, Miquel, B&eacute;dard &amp; Tchounikine, ICDE 2003).</p>
<form action="/query" method="get">
<input name="q" size="100"
 value="SELECT * BY Org.Division, TIME.YEAR MODE tcm">
<button>Run</button>
</form>
<p>Also: <a href="/modes">/modes</a> &middot; <a href="/schema">/schema</a>
&middot; <a href="/healthz">/healthz</a></p>
</body></html>
`)
}

// jsonError writes a JSON error envelope.
func jsonError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(encodeJSON(v))
}

// encodeJSON renders v in the server's wire form (two-space indent,
// trailing newline — exactly what json.Encoder.SetIndent produced).
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return buf.Bytes()
}

// modeEntry is one temporal mode on the wire: GET /modes lists them,
// and so does a MODES statement's body.
type modeEntry struct {
	Mode  string `json:"mode"`
	Valid string `json:"valid,omitempty"`
}

func modeEntries(modes []core.Mode) []modeEntry {
	var out []modeEntry
	for _, m := range modes {
		e := modeEntry{Mode: m.String()}
		if m.Kind == core.VersionKind && m.Version != nil {
			e.Valid = m.Version.Valid.String()
		}
		out = append(out, e)
	}
	return out
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	stmt := r.URL.Query().Get("q")
	if stmt == "" {
		jsonError(w, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return
	}
	// The request context carries client-disconnect cancellation; the
	// configured per-request deadline is layered on top, and both stop
	// the scan inside its per-tuple loop.
	ctx := r.Context()
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}
	// Read-your-writes: a request pinned to a walSeq waits (bounded by
	// the same deadline as the query itself) until this process serves
	// a generation that contains it.
	if status, err := s.awaitMinSeq(ctx, r); err != nil {
		jsonError(w, status, err)
		return
	}
	var root *obs.Span
	if r.URL.Query().Get("trace") == "1" {
		ctx, root = obs.NewTrace(ctx, "query")
	}
	out, err := tql.RunCachedContext(ctx, s.snapshot(), stmt, quality.DefaultWeights(), s.queryCache)
	if err != nil {
		jsonError(w, queryStatus(err), err)
		return
	}
	setQuality(r.Context(), out.Quality)
	if root == nil {
		// The response body is a pure function of the output, so the
		// encoded bytes ride along with the result-cache entry: a cache
		// hit writes them straight out, skipping rendering and JSON
		// encoding as well as the scan.
		body := out.RenderOnce(func() []byte { return encodeQueryResponse(out, nil) })
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	// The body is written before the trace is closed, so the span tree
	// in the response can say what writing it cost.
	_, esp := obs.StartSpan(ctx, "encode")
	body := encodeQueryResponse(out, func(fields []byte) *obs.SpanNode {
		if out.Result != nil {
			esp.SetAttr("rows", out.Result.Len())
		}
		esp.SetAttr("bytes", len(fields))
		esp.End()
		root.End()
		return root.Node()
	})
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// queryStatus maps a query error onto an HTTP status: expired
// deadlines are 504, client disconnects 499, anything else is the
// client's statement's fault.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleModes(w http.ResponseWriter, _ *http.Request) {
	sch := s.snapshot()
	if sch == nil {
		jsonError(w, http.StatusServiceUnavailable, errNotReady)
		return
	}
	page := s.modes.Load()
	if page == nil || page.swapID != sch.SwapID() {
		page = &modesPage{swapID: sch.SwapID(), body: encodeJSON(modeEntries(sch.Modes()))}
		s.modes.Store(page)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(page.body)
}

// modesPage is GET /modes' body as one generation renders it.
type modesPage struct {
	swapID uint64
	body   []byte
}

// schemaResponse describes the warehouse structure.
type schemaResponse struct {
	Name       string           `json:"name"`
	Measures   []measureEntry   `json:"measures"`
	Dimensions []dimensionEntry `json:"dimensions"`
	Mappings   []mappingEntry   `json:"mappings,omitempty"`
	Facts      int              `json:"facts"`
	Modes      int              `json:"modes"`
	Evolution  []evolutionEntry `json:"evolution,omitempty"`
}

type measureEntry struct {
	Name string `json:"name"`
	Agg  string `json:"agg"`
}

type dimensionEntry struct {
	ID       string         `json:"id"`
	Name     string         `json:"name"`
	Versions []versionEntry `json:"versions"`
}

type versionEntry struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Level  string `json:"level,omitempty"`
	Valid  string `json:"valid"`
	IsLeaf bool   `json:"isLeaf"`
}

type mappingEntry struct {
	From    string   `json:"from"`
	To      string   `json:"to"`
	K       []string `json:"k"`
	KInv    []string `json:"kInv"`
	Conf    int      `json:"confidence"`
	ConfInv int      `json:"confidenceInv"`
}

type evolutionEntry struct {
	Seq         int    `json:"seq"`
	Description string `json:"description"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	if s.notReady(w) {
		return
	}
	ctx := r.Context()
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}
	if status, err := s.awaitMinSeq(ctx, r); err != nil {
		jsonError(w, status, err)
		return
	}
	s.mu.RLock()
	sch, applier := s.schema, s.applier
	s.mu.RUnlock()
	resp := schemaResponse{
		Name:  sch.Name,
		Facts: sch.Facts().Len(),
		Modes: len(sch.Modes()),
	}
	for _, m := range sch.Measures() {
		resp.Measures = append(resp.Measures, measureEntry{Name: m.Name, Agg: m.Agg.String()})
	}
	for _, d := range sch.Dimensions() {
		de := dimensionEntry{ID: string(d.ID), Name: d.Name}
		for _, mv := range d.Versions() {
			de.Versions = append(de.Versions, versionEntry{
				ID:     string(mv.ID),
				Name:   mv.DisplayName(),
				Level:  mv.Level,
				Valid:  mv.Valid.String(),
				IsLeaf: d.IsLeafVersion(mv.ID),
			})
		}
		resp.Dimensions = append(resp.Dimensions, de)
	}
	for _, row := range metadata.MappingTable(sch) {
		resp.Mappings = append(resp.Mappings, mappingEntry{
			From: row.From, To: row.To, K: row.K, KInv: row.KInv,
			Conf: row.Conf, ConfInv: row.ConfInv,
		})
	}
	for _, e := range applier.Log() {
		resp.Evolution = append(resp.Evolution, evolutionEntry{Seq: e.Seq, Description: e.Description})
	}
	writeJSON(w, resp)
}

// handleWrite is the write path: /evolve, /facts and /facts/retract are
// one pipeline under three record kinds. beginWrite admits the request and parses its body into a
// store.Mutation, commit runs it. A write answers 400 when its body
// does not parse or holds nothing, 422 when the batch parsed but an
// element of it does not apply to the served schema (the envelope says
// which; nothing was retained, nothing logged), and 500 when the batch
// applied but the WAL append failed (nothing served, nothing persisted).
func (s *Server) handleWrite(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if m, ok := s.beginWrite(w, r, kind); ok {
			s.commit(w, r, m)
		}
	}
}

// maxWriteBody bounds the body of a write request.
const maxWriteBody = 1 << 20

// beginWrite is the guard in front of every write: a follower answers
// 403 with the leader's address, a server without WithEvolution 403, a
// server still recovering 503, a body past maxWriteBody 413 naming the
// limit — never cut short and parsed, which would report a valid batch
// as malformed JSON or, worse, apply the first MiB of a script — and a
// body that does not parse 400. On refusal the response has been
// written and ok is false.
func (s *Server) beginWrite(w http.ResponseWriter, r *http.Request, kind string) (m *store.Mutation, ok bool) {
	if s.forbidOnReplica(w) {
		return nil, false
	}
	if !s.allowEvolve {
		what := "mutation"
		if kind == store.RecordEvolve {
			what = "evolution"
		}
		jsonError(w, http.StatusForbidden, fmt.Errorf("%s disabled; start with WithEvolution", what))
		return nil, false
	}
	start := time.Now()
	sch := s.snapshot()
	if sch == nil {
		jsonError(w, http.StatusServiceUnavailable, errNotReady)
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWriteBody))
	if err == nil {
		// The measure count is fixed when a schema is built, so the script
		// parses the same against whichever generation is served by the
		// time the write holds the lock.
		m, err = store.ParseMutation(kind, body, len(sch.Measures()))
	}
	store.ObserveWriteStage(kind, "decode", start)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return m, true
	case errors.As(err, &tooLarge):
		jsonError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the limit of %d bytes; split the batch", tooLarge.Limit))
	default:
		jsonError(w, http.StatusBadRequest, err)
	}
	return nil, false
}

// writeResponse is the envelope of an accepted write, its fields in key
// order. Which of the counts are present says which kind it was.
// deltaApplies, evictedModes, retainedModes and modesSubtracted stay for
// the envelope's clients: a mode has no warm state, so they are always
// 0 and empty.
type writeResponse struct {
	Appended              int           `json:"appended,omitempty"`
	Applied               int           `json:"applied,omitempty"`
	DeltaApplies          int           `json:"deltaApplies"`
	EvictedModes          []string      `json:"evictedModes"`
	Facts                 *int          `json:"facts,omitempty"`
	Modes                 int           `json:"modes,omitempty"`
	ModesSubtracted       *int          `json:"modesSubtracted,omitempty"`
	QueryCacheInvalidated int           `json:"queryCacheInvalidated"`
	RetainedModes         []string      `json:"retainedModes"`
	Retracted             int           `json:"retracted,omitempty"`
	Trace                 *obs.SpanNode `json:"trace,omitempty"`
	WALSeq                uint64        `json:"walSeq,omitempty"`
}

// writeRefusal is the 422 envelope, its fields in key order: the batch
// ran against a clone that was then discarded, so the served schema did
// not mutate, and a refused batch is never appended to the WAL.
type writeRefusal struct {
	Applied  int    `json:"applied"`
	Error    string `json:"error"`
	FailedAt int    `json:"failedAt"`
	FailedOp string `json:"failedOp,omitempty"`
	Retained bool   `json:"retained"`
}

// commit runs an admitted mutation: under the writer mutex, the store's
// commit routine builds the evolved clone (clone, apply, WAL append,
// warm), then publish swaps the clone in under mu and tells the result
// cache what changed, and the automatic snapshot is taken when one is
// due. The queue stage is the wait for the writer mutex. Queries keep
// reading the previous schema throughout, and a query that arrives
// mid-write takes that pointer without waiting: only the swap holds mu.
func (s *Server) commit(w http.ResponseWriter, r *http.Request, m *store.Mutation) {
	kind := m.Kind()
	queued := time.Now()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	store.ObserveWriteStage(kind, "queue", queued)

	// Detached from the client's cancellation: an aborted request must
	// not decide what is durable or how warm the caches are.
	ctx := context.WithoutCancel(r.Context())
	var root *obs.Span
	if r.URL.Query().Get("trace") == "1" {
		ctx, root = obs.NewTrace(ctx, kind)
	}
	c, err := s.store.Commit(ctx, s.schema, s.applier, m)
	var refused *store.BatchError
	switch {
	case errors.As(err, &refused):
		s.logger.Warn("batch refused", "op", kind, "elements", m.Len(),
			"failedAt", refused.Index, "failedOp", refused.Op, "err", refused.Err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(writeRefusal{
			Applied: refused.Index, Error: refused.Error(), FailedAt: refused.Index, FailedOp: refused.Op,
		})
		return
	case err != nil:
		jsonError(w, http.StatusInternalServerError, err)
		return
	}

	if s.parkCommit != nil {
		s.parkCommit()
	}
	published := time.Now()
	invalidated := s.publish(c.Schema, c.Applier, c.Delta, c.Seq)
	store.ObserveWriteStage(kind, "publish", published)

	resp := writeResponse{
		EvictedModes:          []string{},
		QueryCacheInvalidated: invalidated,
		RetainedModes:         []string{},
		WALSeq:                c.Seq,
	}
	facts := c.Schema.Facts().Len()
	switch kind {
	case store.RecordEvolve:
		// TMP is tcm plus one mode per structure version (Def. 10).
		resp.Applied, resp.Modes = m.Len(), 1+len(c.Schema.StructureVersions())
	case store.RecordFacts:
		resp.Appended, resp.Facts = m.Len(), &facts
	case store.RecordRetract:
		resp.Retracted, resp.Facts, resp.ModesSubtracted = m.Len(), &facts, new(int)
	}
	if root != nil {
		root.End()
		resp.Trace = root.Node()
	}
	s.logger.Info("write committed", "op", kind, "elements", m.Len(), "facts", facts)
	if c.SnapshotDue {
		snapshotted := time.Now()
		s.snapshotLocked("auto")
		store.ObserveWriteStage(kind, "snapshot", snapshotted)
	}
	writeJSON(w, resp)
}

// handleAdminSnapshot durably snapshots the served warehouse on
// demand and truncates the write-ahead log.
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.forbidOnReplica(w) {
		return
	}
	s.mu.RLock()
	st := s.store
	s.mu.RUnlock()
	if st == nil {
		jsonError(w, http.StatusForbidden, fmt.Errorf("no store configured; start with -data-dir"))
		return
	}
	if s.notReady(w) {
		return
	}
	start := time.Now()
	s.writeMu.Lock()
	seq, err := st.Snapshot(s.schema, s.applier.Log(), "admin")
	s.writeMu.Unlock()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, map[string]any{
		"walSeq": seq,
		"bytes":  st.SnapshotBytes(),
		"ms":     float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// snapshotLocked takes an automatic store snapshot of the served
// schema; the caller holds s.writeMu. Failure is logged, not returned —
// the WAL still holds every record, so durability is unharmed and the
// next snapshot retries the truncation.
func (s *Server) snapshotLocked(trigger string) {
	if _, err := s.store.Snapshot(s.schema, s.applier.Log(), trigger); err != nil {
		s.logger.Error("snapshot failed", "trigger", trigger, "err", err)
	}
}
