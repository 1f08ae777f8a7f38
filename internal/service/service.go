// Package service is the HTTP/JSON layer of detection-as-a-service:
// bigfootd's request handling over the internal engine.  A Server
// accepts BFJ programs, runs them under a selected detector-variant set
// with per-request budgets, and answers with the versioned
// harness.Report JSON — the same schema bfbench writes, so reports are
// interchangeable between the batch and service paths.
//
// Error discipline mirrors bfbench's audited exit codes:
//
//	bfbench exit            HTTP                   code
//	0  clean                200 OK                 —
//	1  workload failure     422 Unprocessable      "program"
//	1  timeout/step budget  408 Request Timeout    "budget"
//	2  usage error          400 Bad Request        "usage"
//	—  oversized body       413 Too Large          "too-large"
//	3  report I/O           500 Internal           "internal"
//	—  admission queue full 429 Too Many Requests  "overloaded"
//	—  draining shutdown    503 Unavailable        "draining"
//
// Every non-200 response is a JSON ErrorResponse carrying one of those
// code strings, so load generators can separate budget exhaustion
// (expected under deliberately tight limits) from real failures.
//
// Admission is bounded: at most MaxInFlight sessions run concurrently
// and up to MaxQueue more wait in a FIFO, each bounded by its own
// session budget.  Beyond that the server answers 429 "overloaded"
// with a Retry-After hint immediately — overload degrades into fast,
// honest rejections instead of unbounded concurrency.  Draining
// rejects queued-but-unstarted sessions with 503 while admitted ones
// run to completion.
//
// Concurrent sessions share one engine and therefore one bounded
// content-addressed artifact cache: resubmitting a program skips its
// parse/instrument/compile cost entirely.  The per-request cache
// outcome is surfaced in the X-Bigfoot-Cache response header, the
// access-log line and the aggregate counters at GET /v1/stats and
// /metrics.  The cache lives and dies with the process.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"bigfoot/internal/engine"
	"bigfoot/internal/harness"
	"bigfoot/internal/metrics"
	"bigfoot/internal/workloads"
)

// Default request limits; Config overrides.
const (
	DefaultMaxSteps  = 50_000_000
	DefaultTimeout   = 30 * time.Second
	DefaultMaxBody   = 1 << 20 // 1 MiB of BFJ source is a very large program
	DefaultCacheSize = 64
	// DefaultMaxInFlight bounds concurrent sessions: enough to saturate
	// a many-core host with interpreter work, small enough that a
	// traffic burst queues instead of thrashing.
	DefaultMaxInFlight = 32
	// DefaultMaxQueue bounds sessions waiting for a slot; beyond it the
	// server answers 429 "overloaded" immediately.
	DefaultMaxQueue = 128
)

// retryAfterSeconds is the Retry-After hint on 429 responses: sessions
// are short (sub-second to a few seconds), so one second is a sane
// client back-off unit.
const retryAfterSeconds = "1"

// Config configures a Server.
type Config struct {
	// CacheSize bounds the engine's artifact cache; 0 means
	// DefaultCacheSize.
	CacheSize int
	// MaxSteps caps every request's step budget; requests asking for
	// more (or for no limit) are clamped.  0 means DefaultMaxSteps.
	MaxSteps uint64
	// MaxTimeout caps every request's wall-clock budget; 0 means
	// DefaultTimeout.  Requests asking for no timeout get the cap.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds the request body; 0 means DefaultMaxBody.
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently running sessions; 0 means
	// DefaultMaxInFlight, negative disables the bound entirely (no
	// queueing either — every session is admitted immediately).
	MaxInFlight int
	// MaxQueue bounds sessions waiting for an in-flight slot; 0 means
	// DefaultMaxQueue, negative means no queue (immediate 429 when all
	// slots are busy).  Ignored when MaxInFlight is unlimited.
	MaxQueue int
	// TraceDir, when non-empty, records every run as compressed traces:
	// each traced request gets a per-request subdirectory
	// <TraceDir>/<source-hash-prefix>-s<seed> holding one .bftrace per
	// (detector, base) configuration, and the response carries the
	// subdirectory name in the X-Bigfoot-Trace header so clients can
	// locate their run's traces for offline replay.
	TraceDir string
	// Metrics receives the service's HTTP instruments and the engine's
	// instruments; the same registry is served at GET /metrics.  nil
	// disables exposition but all instrumentation still runs against
	// detached instruments.
	Metrics *metrics.Registry
	// Logger receives the structured access log (one line per request,
	// with request ID, route, status, latency, cache disposition) and
	// session failures at Debug.  nil discards — the server never
	// writes to stdout or stderr on its own.
	Logger *slog.Logger
}

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	// Name labels the program in the report (default "program").
	Name string `json:"name,omitempty"`
	// Program is the BFJ source text to check.
	Program string `json:"program"`
	// Detectors selects the variant set by canonical name ("FT", "RC",
	// "SS", "SC", "BF"); empty runs all five.
	Detectors []string `json:"detectors,omitempty"`
	// Seed drives the deterministic thread schedule.
	Seed int64 `json:"seed,omitempty"`
	// MaxSteps bounds each interpreted execution, clamped to the
	// server's cap (0 = the cap).
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// TimeoutMS bounds the whole session's wall-clock time in
	// milliseconds — admission-queue wait included — clamped to the
	// server's cap (0 = the cap; negative is a usage error).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ErrorResponse is the body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"` // "usage", "program", "budget", "too-large", "internal", "overloaded", "draining"
}

// Stats is the body of GET /v1/stats.
type Stats struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Draining      bool              `json:"draining"`
	Build         BuildInfo         `json:"build"`
	Cache         engine.CacheStats `json:"cache"`
	Sessions      SessionStats      `json:"sessions"`
}

// Version is the body of GET /v1/version.
type Version struct {
	Service       string    `json:"service"`
	ReportVersion int       `json:"report_version"`
	Build         BuildInfo `json:"build"`
}

// SessionStats counts detection sessions over the server's lifetime.
// The split matches bigfoot_http_responses_total semantics: every
// answered session lands in exactly one of Completed (200), Failed
// (audited error: 400/408/413/422/500), or Rejected (refused at
// admission: 429 overloaded, 503 draining).
type SessionStats struct {
	Active    int64  `json:"active"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	// Queued is the cumulative count of sessions that waited in the
	// admission queue before their verdict; the instantaneous depth is
	// the bigfoot_http_queue_depth gauge.
	Queued   uint64 `json:"queued"`
	Rejected uint64 `json:"rejected"`
}

// Server handles detection sessions over a shared engine.
type Server struct {
	cfg   Config
	eng   *engine.Engine
	mux   *http.ServeMux
	log   *slog.Logger
	m     serviceMetrics
	gate  *gate
	start time.Time
	build BuildInfo

	active    atomic.Int64
	completed atomic.Uint64
	failed    atomic.Uint64
	rejected  atomic.Uint64
}

// New creates a Server, applying Config defaults.
func New(cfg Config) *Server {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBody
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0 // no queue: immediate 429 at capacity
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:   cfg,
		eng:   engine.New(engine.Options{CacheSize: cfg.CacheSize, Metrics: cfg.Metrics}),
		mux:   http.NewServeMux(),
		log:   log,
		m:     newServiceMetrics(cfg.Metrics),
		start: time.Now(),
		build: readBuildInfo(),
	}
	s.gate = newGate(cfg.MaxInFlight, cfg.MaxQueue, s.m.queueDepth, s.m.queueWait)
	s.mux.HandleFunc("POST /v1/run", s.instrument("/v1/run", s.handleRun))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("/v1/stats", s.handleStats))
	s.mux.HandleFunc("GET /v1/version", s.instrument("/v1/version", s.handleVersion))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	return s
}

// Engine returns the engine the server runs on (shared artifact cache).
func (s *Server) Engine() *engine.Engine { return s.eng }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops admitting new sessions, rejects the queued-but-unstarted
// ones with 503 (nothing of theirs has run), and waits until every
// admitted session has completed or ctx expires.  Pair it with
// http.Server.Shutdown for a graceful stop.
func (s *Server) Drain(ctx context.Context) error {
	s.gate.drain()
	s.m.draining.Set(1)
	if err := s.gate.wait(ctx); err != nil {
		return fmt.Errorf("drain: %d sessions still in flight: %w", s.active.Load(), err)
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.gate.isDraining(),
		Build:         s.build,
	}
	if c := s.eng.Cache(); c != nil {
		st.Cache = c.Stats()
	}
	st.Sessions = SessionStats{
		Active:    s.active.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Queued:    s.gate.queued(),
		Rejected:  s.rejected.Load(),
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Version{
		Service:       "bigfootd",
		ReportVersion: harness.ReportVersion,
		Build:         s.build,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.cfg.Metrics.Handler().ServeHTTP(w, r)
}

// handleRun is one detection session: decode, admit (queueing under
// backpressure when the server is at capacity), budget, run, report.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	// Refuse early while draining: not even decoding runs on behalf of
	// a session that can never start.
	if s.gate.isDraining() {
		s.rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining", errDraining)
		return
	}
	ri := infoFrom(r.Context())
	fail := func(status int, code string, err error) {
		s.failed.Add(1)
		writeError(w, status, code, err)
	}

	req, err := s.decodeRun(w, r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			fail(http.StatusRequestEntityTooLarge, "too-large",
				fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
			return
		}
		fail(http.StatusBadRequest, "usage", err)
		return
	}
	names, err := engine.NormalizeVariants(req.Detectors)
	if err != nil {
		fail(http.StatusBadRequest, "usage", err)
		return
	}

	// The session budget covers the admission queue too: a request that
	// waits out its own timeout is answered 408 without ever running.
	timeout := s.cfg.MaxTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	release, waited, err := s.gate.Acquire(ctx)
	if waited > 0 {
		ri.queueWait = waited
	}
	if err != nil {
		switch {
		case errors.Is(err, errDraining):
			s.rejected.Add(1)
			writeError(w, http.StatusServiceUnavailable, "draining", err)
		case errors.Is(err, errOverloaded):
			s.rejected.Add(1)
			w.Header().Set("Retry-After", retryAfterSeconds)
			writeError(w, http.StatusTooManyRequests, "overloaded", err)
		default:
			fail(http.StatusRequestTimeout, "budget",
				fmt.Errorf("session budget expired after %s in the admission queue: %w",
					waited.Round(time.Millisecond), err))
		}
		return
	}
	defer release()
	s.active.Add(1)
	defer s.active.Add(-1)

	// The cache outcome this request will see: Peek before running, so
	// concurrent identical requests that collapse onto one in-flight
	// build still label the build they waited on.
	wasCached := false
	if c := s.eng.Cache(); c != nil {
		wasCached = c.Peek(engine.CacheKey(req.Program, names, true))
	}
	ri.cache = cacheLabel(wasCached)

	opts := harness.Options{
		Seed:      req.Seed,
		Parallel:  1, // sessions are the unit of concurrency, not trials
		MaxSteps:  min(orDefault(req.MaxSteps, s.cfg.MaxSteps), s.cfg.MaxSteps),
		Detectors: names,
	}

	// Traced runs get a per-request directory named by content hash and
	// seed; the label is echoed in X-Bigfoot-Trace so clients can find
	// their run's traces for offline replay.
	traceLabel := ""
	if s.cfg.TraceDir != "" {
		traceLabel = fmt.Sprintf("%s-s%d", engine.SourceHash(req.Program)[:12], req.Seed)
		dir := filepath.Join(s.cfg.TraceDir, traceLabel)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fail(http.StatusInternalServerError, "internal", fmt.Errorf("trace dir: %w", err))
			return
		}
		opts.TraceDir = dir
		ri.trace = traceLabel
	}

	runner := &harness.Runner{Opts: opts, Engine: s.eng}
	pr, err := runner.RunProgramContext(ctx, workloads.Workload{
		Name: req.Name, Suite: "service", Source: req.Program,
	})
	if err != nil {
		status, code := classify(err)
		// The access-log line carries route/status/latency; the failure
		// detail is debug-level (it is also the response body).
		s.log.Debug("session failed", "id", ri.id, "program", req.Name, "code", code, "err", err)
		fail(status, code, err)
		return
	}
	rep := harness.NewReport(opts, []*harness.ProgramResult{pr})
	s.completed.Add(1)

	w.Header().Set("X-Bigfoot-Cache", cacheLabel(wasCached))
	if traceLabel != "" {
		w.Header().Set("X-Bigfoot-Trace", traceLabel)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := rep.WriteJSON(w); err != nil {
		// Headers are gone; all we can do is log (mirrors bfbench exit 3).
		s.log.Warn("write report failed", "id", ri.id, "program", req.Name, "err", err)
	}
}

// decodeRun parses and validates the request body.  The ResponseWriter
// must be the request's own: MaxBytesReader uses it to close the
// connection on overrun, and the *http.MaxBytesError it returns is how
// handleRun distinguishes an oversized body (413) from malformed JSON
// (400) — a nil writer here once collapsed both into 400 usage.
func (s *Server) decodeRun(w http.ResponseWriter, r *http.Request) (*RunRequest, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("request body: %w", err)
	}
	if req.Program == "" {
		return nil, errors.New("request has no program")
	}
	if req.Name == "" {
		req.Name = "program"
	}
	// A negative timeout is a usage error, not a request for the cap.
	if req.TimeoutMS < 0 {
		return nil, errors.New("timeout_ms must be >= 0")
	}
	return &req, nil
}

// classify maps a session error onto the audited (status, code) pairs:
// budget exhaustion is separated from program faults, and malformed
// variant sets (already rejected above, but reachable through the
// harness for defense in depth) stay usage errors.
func classify(err error) (int, string) {
	var usage *engine.UsageError
	switch {
	case engine.IsBudget(err):
		return http.StatusRequestTimeout, "budget"
	case errors.As(err, &usage):
		return http.StatusBadRequest, "usage"
	default:
		// Parse/compile failures (engine.BuildError) and runtime faults
		// (assertion, deadlock) are the program's fault, not the service's.
		return http.StatusUnprocessableEntity, "program"
	}
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func orDefault(v, def uint64) uint64 {
	if v == 0 {
		return def
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Code: code})
}
