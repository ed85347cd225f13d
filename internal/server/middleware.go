package server

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"mvolap/internal/obs"
)

// Serving-tier metrics, served back out at GET /metrics. Names are
// documented in docs/observability.md.
var (
	metHTTPRequests = obs.Default().CounterVec(
		"mvolap_http_requests_total",
		"HTTP requests by endpoint and status code.",
		"endpoint", "code")
	metHTTPSeconds = obs.Default().HistogramVec(
		"mvolap_http_request_seconds",
		"HTTP request latency by endpoint.",
		nil, "endpoint")
	metHTTPInFlight = obs.Default().Gauge(
		"mvolap_http_in_flight",
		"HTTP requests currently being served.")
	metSlowQueries = obs.Default().Counter(
		"mvolap_http_slow_queries_total",
		"Query requests slower than the slow-query threshold.")
	metFactStoreBytes = obs.Default().GaugeVec(
		"mvolap_fact_store_bytes",
		"Bytes the served fact table reaches, by part: its shard columns or its key index.",
		"part")
)

// statusRecorder captures the status code written by a handler so the
// middleware can label metrics and the access log with it.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// Unwrap exposes the underlying writer so http.NewResponseController
// reaches Flush and the per-request deadline overrides the WAL stream
// endpoint needs.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// logExtra lets a handler attach response-derived fields (the query's
// quality factor) to the access-log line the middleware emits.
type logExtra struct {
	quality    float64
	hasQuality bool
}

type logExtraKey struct{}

// setQuality records the result's quality factor for the access log.
func setQuality(ctx context.Context, q float64) {
	if e, ok := ctx.Value(logExtraKey{}).(*logExtra); ok {
		e.quality = q
		e.hasQuality = true
	}
}

// quiet endpoints are logged at Debug so scrapes and liveness probes
// do not drown the access log.
func quietEndpoint(endpoint string) bool {
	switch endpoint {
	case "/healthz", "/readyz", "/metrics", "/debug/vars", "/debug/pprof/":
		return true
	}
	return false
}

// instrument wraps a handler with the serving-tier observability:
// in-flight gauge, per-endpoint request counter and latency histogram,
// the structured access log, and the slow-query log.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		metHTTPInFlight.Add(1)
		defer metHTTPInFlight.Add(-1)
		extra := &logExtra{}
		r = r.WithContext(context.WithValue(r.Context(), logExtraKey{}, extra))
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		dur := time.Since(start)
		metHTTPRequests.With(endpoint, strconv.Itoa(rec.code)).Inc()
		metHTTPSeconds.With(endpoint).Observe(dur.Seconds())

		attrs := []any{
			"method", r.Method,
			"endpoint", endpoint,
			"path", r.URL.Path,
			"status", rec.code,
			"bytes", rec.bytes,
			"ms", float64(dur) / float64(time.Millisecond),
		}
		if q := r.URL.Query().Get("q"); q != "" {
			attrs = append(attrs, "q", q)
		}
		if extra.hasQuality {
			attrs = append(attrs, "quality", extra.quality)
		}
		level := slog.LevelInfo
		if quietEndpoint(endpoint) {
			level = slog.LevelDebug
		}
		s.logger.Log(r.Context(), level, "request", attrs...)

		if endpoint == "/query" && s.slowQuery > 0 && dur >= s.slowQuery {
			metSlowQueries.Inc()
			s.logger.Warn("slow query", attrs...)
		}
	}
}
