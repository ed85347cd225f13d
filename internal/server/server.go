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
//	POST /admin/snapshot    durably snapshot the warehouse (requires a store)
//	GET  /wal/snapshot      latest snapshot bytes (follower bootstrap; requires a store)
//	GET  /wal/stream        stream committed WAL frames from ?from=<seq> (requires a store)
//	GET  /healthz           liveness
//	GET  /readyz            readiness: 503 until recovery completes
//	GET  /metrics           Prometheus text-format metrics
//	GET  /debug/vars        the same metrics as JSON
//	GET  /debug/pprof/      pprof handlers (requires WithPprof)
//
// Queries run lock-free on an immutable schema snapshot; evolution is
// copy-on-write — operators apply to a clone which is swapped in only
// when the whole batch succeeds, so readers never observe a mutating
// or partially evolved structure, and a failing batch leaves the
// served schema untouched.
//
// With a store attached (Install), every accepted mutation — an
// evolution batch or a fact batch — is appended to the write-ahead
// log before the evolved clone is swapped in, so the durable history
// never records a state that was not served; a batch that fails to
// apply, or whose WAL append fails, is never logged and never served,
// preserving the 422 atomicity envelope.
//
// A server built WithReplica is a read-only follower: it serves
// /query, /modes and /schema from state replicated off a leader's
// WAL stream, answers 403 with the leader's address on every
// mutating endpoint, reports replication lag on /readyz, and honors
// ?minWalSeq= as a read-your-writes barrier. See docs/replication.md.
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
	// mu guards the schema/applier pointers only. Handlers snapshot
	// the pointers under a brief read-lock and run on the snapshot —
	// query execution never holds the lock, so a pending evolution
	// cannot queue readers behind the slowest in-flight query.
	mu          sync.RWMutex
	schema      *core.Schema
	applier     *evolution.Applier
	store       *store.Store
	allowEvolve bool
	// replica is set on a read-only follower: mutations 403 to the
	// leader, /readyz reports lag, ?minWalSeq= waits on the apply loop.
	replica *store.Replica
	// warmRestored lists the temporal modes crash recovery restored
	// warm from the snapshot (reported by /readyz once ready).
	warmRestored []string

	logger       *slog.Logger
	queryTimeout time.Duration
	slowQuery    time.Duration
	enablePprof  bool

	// queryCache serves repeated SELECTs with zero scan. Entries are
	// keyed on (among others) the served schema's swap identity, so
	// the clone-swap mutation path — /facts, /evolve, and Install,
	// which the replica apply loop and crash recovery publish through
	// — invalidates by construction; the swap handlers also reclaim
	// stale entries eagerly. nil when disabled.
	queryCache     *tql.ResultCache
	queryCacheSize int

	// closing is closed by Stop to end long-lived replication streams
	// ahead of a graceful shutdown (Shutdown waits for handlers).
	closing   chan struct{}
	closeOnce sync.Once
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
// default) means no deadline. Expired queries stop materializing and
// aggregating promptly and return 504.
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
		schema:         sch,
		applier:        evolution.NewApplier(sch),
		logger:         slog.Default(),
		slowQuery:      500 * time.Millisecond,
		queryCacheSize: DefaultQueryCacheSize,
		closing:        make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if s.queryCacheSize > 0 {
		s.queryCache = tql.NewResultCache(s.queryCacheSize)
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
// durability). After Install the server reports ready.
func (s *Server) Install(sch *core.Schema, applier *evolution.Applier, st *store.Store) {
	if applier == nil {
		applier = evolution.NewApplier(sch)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.schema = sch
	s.applier = applier
	s.store = st
	if st != nil {
		s.warmRestored = st.RecoveryStats().WarmModes
	}
	// Install is the publish path of crash recovery: reclaim every
	// result-cache entry computed against a previous schema state
	// (their entry-held swapIDs can no longer validate either way).
	if sch != nil {
		s.queryCache.InvalidateExcept(sch.SwapID())
	}
}

// InstallDelta is the replica's publish path: Install, but carrying
// the delta the applied WAL record produced, so the result cache can
// revalidate entries an insert-only facts append provably cannot
// affect instead of dropping everything. Followers serve the read
// fan-out, so this is where repeated queries keep hitting across the
// leader's append stream.
func (s *Server) InstallDelta(sch *core.Schema, applier *evolution.Applier, delta core.Delta) {
	if applier == nil {
		applier = evolution.NewApplier(sch)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var prevID uint64
	if s.schema != nil {
		prevID = s.schema.SwapID()
	}
	s.schema = sch
	s.applier = applier
	if sch != nil {
		s.queryCache.Invalidate(prevID, sch.SwapID(), delta)
	}
}

// snapshot returns the schema to serve this request from. The pointer
// is immutable once published (evolution swaps in a fresh clone), so
// the caller runs without holding any server lock. It is nil until a
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
	jsonError(w, http.StatusServiceUnavailable, fmt.Errorf("recovering: warehouse not yet available"))
	return true
}

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
	handle("POST /evolve", "/evolve", s.handleEvolve)
	handle("POST /facts", "/facts", s.handleFacts)
	handle("POST /facts/retract", "/facts/retract", s.handleFactsRetract)
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
// warehouse is installed. On a follower the response carries the
// replication lag: the seq delta behind the leader plus the
// wall-clock age of the applied frontier.
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
	warm := s.warmRestored
	st := s.store
	s.mu.RUnlock()
	if warm == nil {
		warm = []string{}
	}
	resp := map[string]any{"status": "ready", "warmRestoredModes": warm}
	switch {
	case s.replica != nil:
		resp["role"] = "follower"
		resp["replication"] = s.replica.Status()
	case st != nil:
		resp["role"] = "leader"
		resp["walSeq"] = st.LastSeq()
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

// queryResponse is the JSON shape of a query result. Rows is the array
// appendResultRows renders, always present (as [] when the result is
// empty or the statement is not a SELECT).
type queryResponse struct {
	Measures []string        `json:"measures,omitempty"`
	Groups   []string        `json:"groups,omitempty"`
	Rows     json.RawMessage `json:"rows"`
	Mode     string          `json:"mode,omitempty"`
	Quality  float64         `json:"quality"`
	Dropped  int             `json:"dropped,omitempty"`
	// Ranking is set for QUALITY statements.
	Ranking []rankEntry `json:"ranking,omitempty"`
	// Modes is set for MODES statements.
	Modes []modeEntry `json:"modes,omitempty"`
	// Lineage is set for EXPLAIN statements.
	Lineage string `json:"lineage,omitempty"`
	// Trace is the span tree, present when the request set trace=1.
	Trace *obs.SpanNode `json:"trace,omitempty"`
}

type rankEntry struct {
	Mode    string  `json:"mode"`
	Quality float64 `json:"quality"`
}

type modeEntry struct {
	Mode  string `json:"mode"`
	Valid string `json:"valid,omitempty"`
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
	// materialization and aggregation inside their per-fact loops.
	ctx := r.Context()
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}
	// Read-your-writes: a request pinned to a walSeq waits (bounded by
	// the same deadline as the query itself) until this process has
	// applied it — immediate on the leader, a replication barrier on a
	// follower.
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
		body := out.RenderOnce(func() []byte { return encodeQueryResponse(out) })
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	// The rows are rendered before the trace is closed, so the span tree
	// in the response can say what rendering them cost.
	_, esp := obs.StartSpan(ctx, "encode")
	resp := toResponse(out)
	if out.Result != nil {
		esp.SetAttr("rows", len(out.Result.Rows))
	}
	esp.SetAttr("bytes", len(resp.Rows))
	esp.End()
	root.End()
	resp.Trace = root.Node()
	writeJSON(w, resp)
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

func toResponse(out *tql.Output) queryResponse {
	resp := queryResponse{Quality: out.Quality, Lineage: out.Lineage}
	for _, m := range out.Modes {
		e := modeEntry{Mode: m.String()}
		if m.Kind == core.VersionKind && m.Version != nil {
			e.Valid = m.Version.Valid.String()
		}
		resp.Modes = append(resp.Modes, e)
	}
	for _, rk := range out.Ranking {
		resp.Ranking = append(resp.Ranking, rankEntry{Mode: rk.Mode.String(), Quality: rk.Quality})
	}
	var rows []*core.Row
	if res := out.Result; res != nil {
		resp.Measures = res.MeasureNames
		resp.Groups = res.GroupNames
		resp.Mode = res.Mode.String()
		resp.Dropped = res.Dropped
		rows = res.Rows
	}
	resp.Rows = appendResultRows(nil, rows)
	return resp
}

func (s *Server) handleModes(w http.ResponseWriter, _ *http.Request) {
	if s.notReady(w) {
		return
	}
	var out []modeEntry
	for _, m := range s.snapshot().Modes() {
		e := modeEntry{Mode: m.String()}
		if m.Kind == core.VersionKind {
			e.Valid = m.Version.Valid.String()
		}
		out = append(out, e)
	}
	writeJSON(w, out)
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

// handleEvolve applies an evolution script copy-on-write: the batch
// runs against a clone of the served schema, and the clone is swapped
// in only when every operator succeeds. A failing batch therefore
// leaves the served schema untouched — and the 422 envelope reports
// exactly what happened: how many operators applied before the
// failure, which operator failed (index and Table 11 description),
// and that nothing was retained.
func (s *Server) handleEvolve(w http.ResponseWriter, r *http.Request) {
	if s.forbidOnReplica(w) {
		return
	}
	if !s.allowEvolve {
		jsonError(w, http.StatusForbidden, fmt.Errorf("evolution disabled; start with WithEvolution"))
		return
	}
	if s.notReady(w) {
		return
	}
	body, ok := readWriteBody(w, r)
	if !ok {
		return
	}
	// The write lock only serializes evolutions against each other and
	// against pointer snapshots; queries in flight keep reading the
	// previous schema and are never blocked by the clone or the apply.
	s.mu.Lock()
	defer s.mu.Unlock()
	ops, err := evolution.ParseScript(bytes.NewReader(body), len(s.schema.Measures()))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	clone := s.schema.Clone()
	applier := s.applier.Rebind(clone)
	touched, err := applier.ApplyTouched(ops...)
	if err != nil {
		envelope := map[string]any{"error": err.Error()}
		var ae *evolution.ApplyError
		if errors.As(err, &ae) {
			envelope["applied"] = ae.Applied
			envelope["failedAt"] = ae.Index
			envelope["failedOp"] = ae.Op
			// Copy-on-write: the partially applied clone is discarded,
			// so the served schema did not mutate. A failed batch is
			// also never appended to the WAL.
			envelope["retained"] = false
			s.logger.Warn("evolution batch failed",
				"ops", len(ops), "applied", ae.Applied,
				"failedAt", ae.Index, "failedOp", ae.Op, "err", ae.Err)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(envelope)
		return
	}
	// The one derivation of the new generation's structure versions on
	// the write path; TMP is tcm plus one mode per version (Def. 10).
	ctx, root := startTrace(r, "evolve")
	modes := 1 + len(clone.StructureVersionsContext(ctx))
	// Write-ahead: the accepted script must be durable (per the fsync
	// policy) before the evolved clone becomes visible. A failed append
	// serves and persists nothing.
	resp := map[string]any{
		"applied": len(ops),
		"modes":   modes,
	}
	snapshotDue := false
	if s.store != nil {
		seq, due, err := s.store.AppendEvolve(body)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, fmt.Errorf("wal append: %w", err))
			return
		}
		resp["walSeq"] = seq
		snapshotDue = due
	}
	s.warmCaches(ctx, root, clone, touched.Delta(), resp)
	prevID := s.schema.SwapID()
	s.schema = clone
	s.applier = applier
	resp["queryCacheInvalidated"] = s.queryCache.Invalidate(prevID, clone.SwapID(), touched.Delta())
	s.logger.Info("evolution applied", "ops", len(ops), "modes", modes,
		"modesRetained", resp["retainedModes"], "modesEvicted", resp["evictedModes"])
	if snapshotDue {
		s.snapshotLocked("auto")
	}
	writeJSON(w, resp)
}

// handleFacts appends a batch of source facts, with the same
// copy-on-write atomicity as /evolve: the whole batch validates and
// inserts into a clone, is appended to the WAL, and only then swapped
// into service. A batch with any invalid fact changes nothing and is
// never logged.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	if s.forbidOnReplica(w) {
		return
	}
	if !s.allowEvolve {
		jsonError(w, http.StatusForbidden, fmt.Errorf("mutation disabled; start with WithEvolution"))
		return
	}
	if s.notReady(w) {
		return
	}
	body, ok := readWriteBody(w, r)
	if !ok {
		return
	}
	batch, err := store.ParseFactBatch(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	clone := s.schema.Clone()
	oldLen := clone.Facts().Len()
	for i, fr := range batch {
		if err := store.ApplyFact(clone, fr); err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			json.NewEncoder(w).Encode(map[string]any{
				"error":    fmt.Sprintf("fact %d: %v", i, err),
				"applied":  i,
				"failedAt": i,
				"retained": false,
			})
			return
		}
	}
	resp := map[string]any{
		"appended": len(batch),
		"facts":    clone.Facts().Len(),
	}
	snapshotDue := false
	if s.store != nil {
		seq, due, err := s.store.AppendFactBatch(batch)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, fmt.Errorf("wal append: %w", err))
			return
		}
		resp["walSeq"] = seq
		snapshotDue = due
	}
	// An insert-only batch appends a suffix the cached modes can fold in
	// incrementally; a batch that replaced values at existing coordinates
	// cannot be expressed as a delta and evicts everything.
	var delta core.Delta
	if clone.Facts().Len() == oldLen+len(batch) {
		delta.NewFacts = clone.Facts().Facts()[oldLen:]
	} else {
		delta.FactsReplaced = true
	}
	delta.FactsWindow, delta.FactsWindowKnown = store.BatchWindow(batch)
	ctx, root := startTrace(r, "facts")
	s.warmCaches(ctx, root, clone, delta, resp)
	prevID := s.schema.SwapID()
	s.schema = clone
	s.applier = s.applier.Rebind(clone)
	// Cached SELECTs whose time range cannot see the batch's window are
	// revalidated rather than dropped; everything overlapping drops.
	resp["queryCacheInvalidated"] = s.queryCache.Invalidate(prevID, clone.SwapID(), delta)
	s.logger.Info("facts appended", "facts", len(batch), "total", clone.Facts().Len(),
		"modesRetained", resp["retainedModes"], "modesEvicted", resp["evictedModes"])
	if snapshotDue {
		s.snapshotLocked("auto")
	}
	writeJSON(w, resp)
}

// handleFactsRetract removes facts: a JSON array of {coords, time}
// addresses. The batch is atomic with the same copy-on-write shape as
// /facts: every record must address an existing tuple of a clone; any
// miss returns 422 and changes nothing — in particular, nothing is
// logged to the WAL. On success the delta carries the old tuples, so
// warm modes subtract the retracted contributions under invertible
// aggregates instead of rebuilding, and the TQL result cache retargets
// entries whose time range provably cannot see the retracted window.
// Leader-only: followers answer 403 with the leader's address.
func (s *Server) handleFactsRetract(w http.ResponseWriter, r *http.Request) {
	if s.forbidOnReplica(w) {
		return
	}
	if !s.allowEvolve {
		jsonError(w, http.StatusForbidden, fmt.Errorf("mutation disabled; start with WithEvolution"))
		return
	}
	if s.notReady(w) {
		return
	}
	body, ok := readWriteBody(w, r)
	if !ok {
		return
	}
	batch, err := store.ParseRetractBatch(body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	clone := s.schema.Clone()
	retracted := make([]*core.Fact, 0, len(batch))
	for i, rr := range batch {
		old, err := store.ApplyRetract(clone, rr)
		if err != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			json.NewEncoder(w).Encode(map[string]any{
				"error":    fmt.Sprintf("retract %d: %v", i, err),
				"applied":  i,
				"failedAt": i,
				"retained": false,
			})
			return
		}
		retracted = append(retracted, old)
	}
	resp := map[string]any{
		"retracted": len(batch),
		"facts":     clone.Facts().Len(),
	}
	snapshotDue := false
	if s.store != nil {
		seq, due, err := s.store.AppendRetractBatch(batch)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, fmt.Errorf("wal append: %w", err))
			return
		}
		resp["walSeq"] = seq
		snapshotDue = due
	}
	// Retraction is structure-neutral; the delta carries the old tuples
	// so warm maintenance can unfold them (or evict where it cannot).
	delta := evolution.TouchSet{}.WithRetraction(retracted)
	ctx, root := startTrace(r, "retract")
	s.warmCaches(ctx, root, clone, delta, resp)
	prevID := s.schema.SwapID()
	s.schema = clone
	s.applier = s.applier.Rebind(clone)
	// Cached SELECTs whose time range cannot see the retracted window
	// are revalidated rather than dropped; everything overlapping drops.
	resp["queryCacheInvalidated"] = s.queryCache.Invalidate(prevID, clone.SwapID(), delta)
	s.logger.Info("facts retracted", "facts", len(batch), "total", clone.Facts().Len(),
		"modesRetained", resp["retainedModes"], "modesEvicted", resp["evictedModes"])
	if snapshotDue {
		s.snapshotLocked("auto")
	}
	writeJSON(w, resp)
}

// maxWriteBody bounds the body of a write request (/evolve, /facts,
// /facts/retract).
const maxWriteBody = 1 << 20

// readWriteBody reads a write request's whole body. A body past
// maxWriteBody is refused with 413 naming the limit — never cut short
// and parsed, which would report a valid batch as malformed JSON or,
// worse, apply the first MiB of a script. On failure the response has
// been written and ok is false.
func readWriteBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWriteBody))
	if err == nil {
		return body, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		jsonError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the limit of %d bytes; split the batch", tooLarge.Limit))
	} else {
		jsonError(w, http.StatusBadRequest, err)
	}
	return nil, false
}

// startTrace returns the context a write handler's post-acceptance work
// runs under — detached from the client's cancellation: an aborted
// request must not decide cache temperature — and, with ?trace=1, the
// root span of the trace warmCaches attaches to the response.
func startTrace(r *http.Request, endpoint string) (context.Context, *obs.Span) {
	ctx := context.WithoutCancel(r.Context())
	if r.URL.Query().Get("trace") != "1" {
		return ctx, nil
	}
	return obs.NewTrace(ctx, endpoint)
}

// warmCaches hands the currently served schema's materialized MVFT
// modes to the accepted clone right before the swap, folding in only
// the delta (core.Schema.WarmFrom) — the serving tier no longer starts
// cold after every mutation. The caller holds s.mu (so s.schema is the
// outgoing base) and has already passed the point of no failure: the
// batch applied and the WAL append succeeded. Warming is therefore
// best-effort; ctx and root come from startTrace.
//
// The retained/evicted mode lists and delta-apply count are added to
// the response envelope; with ?trace=1 the span tree — an "mvft_delta"
// span beside whatever the handler recorded under root — is attached
// as well.
func (s *Server) warmCaches(ctx context.Context, root *obs.Span, clone *core.Schema, d core.Delta, resp map[string]any) {
	spanCtx, sp := obs.StartSpan(ctx, "mvft_delta")
	res := clone.WarmFrom(spanCtx, s.schema, d)
	sp.SetAttr("retained", len(res.Retained))
	sp.SetAttr("evicted", len(res.Evicted))
	sp.SetAttr("delta_applies", res.DeltaApplied)
	sp.SetAttr("delta_facts", len(d.NewFacts))
	sp.SetAttr("sealed", res.Sealed)
	sp.SetAttr("merged", res.Merged)
	if len(d.Retracted) > 0 {
		sp.SetAttr("retracted_facts", len(d.Retracted))
		sp.SetAttr("modes_subtracted", res.Subtracted)
		resp["modesSubtracted"] = res.Subtracted
	}
	sp.End()
	if res.Retained == nil {
		res.Retained = []string{}
	}
	if res.Evicted == nil {
		res.Evicted = []string{}
	}
	resp["retainedModes"] = res.Retained
	resp["evictedModes"] = res.Evicted
	resp["deltaApplies"] = res.DeltaApplied
	if root != nil {
		root.End()
		resp["trace"] = root.Node()
	}
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
	s.mu.Lock()
	seq, err := st.Snapshot(s.schema, s.applier.Log(), "admin")
	warmModes := []string{}
	if err == nil && st.WarmEnabled() {
		warmModes = append(warmModes, s.schema.CachedModeKeys()...)
	}
	s.mu.Unlock()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, map[string]any{
		"walSeq":    seq,
		"warmModes": warmModes,
		"bytes":     st.SnapshotBytes(),
		"ms":        float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// snapshotLocked takes an automatic store snapshot of the served
// schema; the caller holds s.mu. Failure is logged, not returned — the
// WAL still holds every record, so durability is unharmed and the next
// snapshot retries the truncation.
func (s *Server) snapshotLocked(trigger string) {
	if _, err := s.store.Snapshot(s.schema, s.applier.Log(), trigger); err != nil {
		s.logger.Error("snapshot failed", "trigger", trigger, "err", err)
	}
}
