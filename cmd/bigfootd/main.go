// Command bigfootd serves BigFoot race detection as a long-lived
// HTTP/JSON daemon: submit a BFJ program, select detector variants, and
// get back the same versioned harness.Report JSON that bfbench writes.
//
// Usage:
//
//	bigfootd [-addr :8347] [-cache 64] [-max-steps N] [-max-timeout D]
//	         [-drain-timeout D] [-max-in-flight N] [-max-queue N]
//	         [-trace-dir DIR] [-log-json] [-v]
//
// Endpoints:
//
//	POST /v1/run     {"program": "...", "detectors": ["FT","BF"], ...}
//	                 -> harness.Report JSON (X-Bigfoot-Cache: hit|miss)
//	GET  /v1/stats   -> uptime, build info, cache/session counters
//	GET  /v1/version -> service and build identity
//	GET  /metrics    -> Prometheus text exposition of every instrument
//	GET  /healthz    -> ok
//
// Every request is answered with an X-Request-Id header (honoring one
// the client sent) and logged as one structured access-log line —
// logfmt-style text by default, JSON under -log-json; -v adds
// debug-level detail (session failures, scrape/health polls).  Cache
// traffic is on the access line (cache=hit|miss), at /metrics and at
// /v1/stats.
//
// With -trace-dir every run is recorded into the persistent compressed
// trace format under DIR/<source-hash>-s<seed>/ (one .bftrace per
// variant plus the base execution); the response carries the label in
// an X-Bigfoot-Trace header so clients can find their recording.
//
// Compiled artifacts are cached (bounded LRU, content-addressed), so
// resubmitting a program pays no parse/instrument/compile cost.  The
// cache lives and dies with the process.
//
// Admission is bounded: at most -max-in-flight sessions run while up
// to -max-queue wait in a FIFO; beyond that submissions are refused
// immediately with 429 "overloaded" and a Retry-After header.  On
// SIGINT/SIGTERM the daemon stops admitting sessions, rejects queued
// ones with 503, drains the running ones, and exits 0; a second signal
// aborts immediately.
//
// All diagnostics go to stderr; stdout stays silent so the daemon can
// run under supervisors that capture streams separately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bigfoot/internal/metrics"
	"bigfoot/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":8347", "listen address")
		cacheSize  = flag.Int("cache", service.DefaultCacheSize, "artifact cache capacity (entries)")
		maxSteps   = flag.Uint64("max-steps", service.DefaultMaxSteps, "per-execution step budget cap")
		maxTimeout = flag.Duration("max-timeout", service.DefaultTimeout, "per-session wall-clock budget cap")
		drainFor   = flag.Duration("drain-timeout", time.Minute, "grace period for in-flight sessions on shutdown")
		maxInFly   = flag.Int("max-in-flight", service.DefaultMaxInFlight, "max concurrently running sessions (negative = unlimited)")
		maxQueue   = flag.Int("max-queue", service.DefaultMaxQueue, "max sessions waiting for a slot before 429 (negative = no queue)")
		traceDir   = flag.String("trace-dir", "", "record every run as compressed traces under this directory")
		logJSON    = flag.Bool("log-json", false, "emit the access log as JSON lines instead of text")
		verbose    = flag.Bool("v", false, "debug logging: session failures, health/metrics polls")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bigfootd: unexpected arguments %q\n", flag.Args())
		return 2
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, hopts)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	}
	logger := slog.New(handler)

	reg := metrics.NewRegistry()
	svc := service.New(service.Config{
		CacheSize:   *cacheSize,
		MaxSteps:    *maxSteps,
		MaxTimeout:  *maxTimeout,
		MaxInFlight: *maxInFly,
		MaxQueue:    *maxQueue,
		TraceDir:    *traceDir,
		Metrics:     reg,
		Logger:      logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bigfootd: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: svc}
	logger.Info("listening",
		"addr", ln.Addr().String(), "cache", *cacheSize,
		"max_steps", *maxSteps, "max_timeout", *maxTimeout,
		"max_in_flight", *maxInFly, "max_queue", *maxQueue)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "bigfootd: %v\n", err)
		return 1
	case sig := <-sigs:
		logger.Info("draining in-flight sessions", "signal", sig.String())
	}

	// Graceful shutdown: refuse new sessions (503), drain the running
	// ones, then close the listener.  A second signal aborts the grace
	// period.
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	go func() {
		<-sigs
		logger.Warn("second signal, aborting drain")
		cancel()
	}()
	code := 0
	if err := svc.Drain(ctx); err != nil {
		logger.Error("drain failed", "err", err)
		code = 1
	}
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown failed", "err", err)
		code = 1
	}
	logger.Info("drained; bye")
	return code
}
