package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"bigfoot/internal/metrics"
)

// This file is the service's observability seam: per-request IDs and
// the structured access log, the HTTP instrument set, and build
// identity for GET /v1/version.

// RequestIDHeader is the request-correlation header: honored when the
// client sends one (so IDs propagate through proxies and test
// harnesses), generated otherwise, and always echoed on the response.
const RequestIDHeader = "X-Request-Id"

// serviceMetrics is the HTTP layer's instrument set.  Like the
// engine's, every instrument exists from construction — detached when
// no registry is configured — so handlers never nil-check.
type serviceMetrics struct {
	inFlight   *metrics.Gauge
	reqSeconds *metrics.HistogramVec // route
	responses  *metrics.CounterVec   // route, status
	draining   *metrics.Gauge
	queueDepth *metrics.Gauge
	queueWait  *metrics.Histogram
}

func newServiceMetrics(r *metrics.Registry) serviceMetrics {
	return serviceMetrics{
		inFlight: r.Gauge("bigfoot_http_in_flight_requests",
			"requests currently being served"),
		reqSeconds: r.HistogramVec("bigfoot_http_request_seconds",
			"request latency by route", nil, "route"),
		responses: r.CounterVec("bigfoot_http_responses_total",
			"responses by route and status code", "route", "status"),
		draining: r.Gauge("bigfoot_http_draining",
			"1 while the server refuses new sessions (graceful shutdown)"),
		queueDepth: r.Gauge("bigfoot_http_queue_depth",
			"sessions waiting in the admission queue right now"),
		queueWait: r.Histogram("bigfoot_http_queue_wait_seconds",
			"time sessions spent in the admission queue before a verdict (admission, rejection, or expiry)", nil),
	}
}

// requestInfo is the per-request telemetry record: allocated by the
// instrument middleware, reachable from handlers through the request
// context so they can attach dispositions (cache outcome, trace label)
// that the access-log line then reports.
type requestInfo struct {
	id        string
	cache     string        // "hit" / "miss"; empty when the request never ran
	trace     string        // trace subdirectory label; empty when not tracing
	queueWait time.Duration // time spent in the admission queue; 0 = admitted at once
}

type requestInfoKey struct{}

// infoFrom returns the request's telemetry record; handlers reached
// outside the instrument middleware (tests calling them directly) get
// a throwaway record so writes never nil-panic.
func infoFrom(ctx context.Context) *requestInfo {
	if ri, ok := ctx.Value(requestInfoKey{}).(*requestInfo); ok {
		return ri
	}
	return &requestInfo{}
}

// newRequestID generates a 16-hex-char random correlation ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// validRequestID accepts client-supplied IDs that are short and
// printable-ASCII without spaces — anything else is replaced, not
// echoed, so log lines and headers stay injection-free.
func validRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// statusWriter captures the response status for metrics and the access
// log.  WriteHeader is recorded once (matching net/http, which ignores
// duplicates); an implicit 200 from the first Write is recorded too.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// instrument wraps one route's handler with the whole per-request
// telemetry stack: correlation ID, in-flight gauge, latency histogram,
// response counter, and exactly one structured access-log line.
// /healthz and /metrics are logged at Debug — scrapers and liveness
// probes poll them, and an Info line per poll would drown real
// sessions.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ri := &requestInfo{id: r.Header.Get(RequestIDHeader)}
		if !validRequestID(ri.id) {
			ri.id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, ri.id)
		sw := &statusWriter{ResponseWriter: w}
		s.m.inFlight.Inc()
		start := time.Now()
		h(sw, r.WithContext(context.WithValue(r.Context(), requestInfoKey{}, ri)))
		elapsed := time.Since(start)
		s.m.inFlight.Dec()
		if sw.status == 0 {
			sw.status = http.StatusOK // handler wrote nothing at all
		}
		s.m.reqSeconds.With(route).ObserveDuration(elapsed)
		s.m.responses.With(route, strconv.Itoa(sw.status)).Inc()

		lvl := slog.LevelInfo
		if route == "/healthz" || route == "/metrics" {
			lvl = slog.LevelDebug
		}
		attrs := []slog.Attr{
			slog.String("id", ri.id),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.Int("status", sw.status),
			slog.Duration("elapsed", elapsed.Round(time.Microsecond)),
		}
		if ri.cache != "" {
			attrs = append(attrs, slog.String("cache", ri.cache))
		}
		if ri.trace != "" {
			attrs = append(attrs, slog.String("trace", ri.trace))
		}
		if ri.queueWait > 0 {
			attrs = append(attrs, slog.Duration("queue_wait", ri.queueWait.Round(time.Microsecond)))
		}
		s.log.LogAttrs(r.Context(), lvl, "request", attrs...)
	}
}

// BuildInfo identifies the running binary: the toolchain that built it
// and the VCS state it was built from (empty fields when the binary
// was built outside a repository, e.g. go test).
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Time      string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

// readBuildInfo extracts BuildInfo from the binary's embedded build
// metadata.
func readBuildInfo() BuildInfo {
	bi := BuildInfo{}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.GoVersion = info.GoVersion
	bi.Module = info.Main.Path
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			bi.Revision = s.Value
		case "vcs.time":
			bi.Time = s.Value
		case "vcs.modified":
			bi.Modified = s.Value == "true"
		}
	}
	return bi
}
