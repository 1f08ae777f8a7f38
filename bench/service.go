package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"bigfoot/internal/harness"
	"bigfoot/internal/metrics"
	"bigfoot/internal/service"
	"bigfoot/internal/workloads"
)

// hitPrograms are the programs the service-mixed mix resubmits, so their
// artifacts come from the cache.
var hitPrograms = []string{"tomcat", "avrora", "h2", "fop", "xalan", "luindex", "jython", "lusearch"}

// serviceRequests is the length of service-mixed's request sequence:
// enough for 10 requests beyond the 90th percentile.
const serviceRequests = 100

// request is one POST /v1/run of the mix.
type request struct {
	key       string // program|detectors: repeats must agree on Signature
	name      string
	program   string
	detectors []string
	miss      bool // a corpus program, not cached yet
}

// serviceMix draws n requests from seed in blocks of 20, each in a
// seeded order: 4 programs of the bfgen corpus that miss the cache
// (20%), 15 resubmissions of the named programs in rotation (75%) and
// the racy quickstart once (5%).  5 requests of every block (25%) ask
// for all five detectors, the rest for BF alone: one miss, and either
// 4 resubmissions or 3 and the quickstart, alternating.  The
// proportions are synthetic, not drawn from recorded traffic.  Seeds
// differ only in the order of requests, so the latency percentiles do
// not move with the mix.
func serviceMix(seed int64, n int, named []workloads.Workload) []request {
	rng := rand.New(rand.NewSource(seed))
	corpus := bfgenCorpus((n + 19) / 20 * 4)
	quick := workloads.Quickstart()
	req := func(w workloads.Workload, wide, miss bool) request {
		dets := []string{"BF"}
		if wide {
			dets = variants
		}
		return request{key: fmt.Sprintf("%s|%v", w.Name, dets), name: w.Name,
			program: w.Source, detectors: dets, miss: miss}
	}
	var reqs []request
	resubmitted := 0
	for b := 0; len(reqs) < n; b++ {
		odd := b%2 == 1
		var block []request
		for i, c := range corpus[4*b : 4*b+4] {
			block = append(block, req(workloads.Workload{Name: c.name, Source: c.src}, i == 0, true))
		}
		block = append(block, req(quick, odd, false))
		wideHits := 4
		if odd {
			wideHits = 3
		}
		for i := 0; i < 15; i++ {
			block = append(block, req(named[resubmitted%len(named)], i < wideHits, false))
			resubmitted++
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		reqs = append(reqs, block...)
	}
	return reqs[:n]
}

// svc is one in-process bigfootd served over loopback.
type svc struct {
	reg    *metrics.Registry
	ts     *httptest.Server
	client *http.Client
	seed   int64
	sigs   map[string]string // request key → Signature of its first 200
	obs    []observed        // every 200 this server answered
}

// observed is what one successful request reported.
type observed struct {
	clientMS float64 // send to last body byte, wall clock like the server's own timers
	miss     bool
	phases   harness.PhaseTimings
}

func startService(seed int64, sigs map[string]string) *svc {
	reg := metrics.NewRegistry()
	srv := service.New(service.Config{MaxInFlight: 2, Metrics: reg})
	return &svc{
		reg: reg, ts: httptest.NewServer(srv), seed: seed,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		sigs:   sigs,
	}
}

// close stops the server (waiting for its requests) and the client.
func (s *svc) close() {
	s.ts.Close()
	s.client.CloseIdleConnections()
}

// post sends one request and checks its response: a 200 whose body is
// a valid report, whose Signature matches every earlier response to the
// same key, and which finds a race under every detector when the
// program is the racy quickstart.  It returns the CPU time from sending
// the request to reading the last body byte: client and server share
// the process's one P, so that is the request's latency less any time
// the host gave to other tenants.
func (s *svc) post(ctx context.Context, q request) (time.Duration, error) {
	body, err := json.Marshal(service.RunRequest{Name: q.name, Program: q.program, Detectors: q.detectors, Seed: s.seed})
	if err != nil {
		return 0, err
	}
	start, cpuStart := time.Now(), cpuTime()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", q.key, err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed, wall := cpuTime()-cpuStart, time.Since(start)
	if err != nil {
		return elapsed, fmt.Errorf("%s: read body: %w", q.key, err)
	}
	if resp.StatusCode != http.StatusOK {
		return elapsed, fmt.Errorf("%s: HTTP %d: %s", q.key, resp.StatusCode, bytes.TrimSpace(payload))
	}
	rep, err := harness.ReadJSON(bytes.NewReader(payload))
	if err != nil {
		return elapsed, fmt.Errorf("%s: %w", q.key, err)
	}
	if len(rep.Programs) != 1 || len(rep.Programs[0].Detectors) != len(q.detectors) {
		return elapsed, fmt.Errorf("%s: report has %d programs, want 1 with %d detectors", q.key, len(rep.Programs), len(q.detectors))
	}
	pr := rep.Programs[0]
	if q.name == "quickstart" {
		for name, d := range pr.Detectors {
			if d.Races < 1 {
				return elapsed, fmt.Errorf("%s: %s found no race in the racy quickstart", q.key, name)
			}
		}
	}
	sig := rep.Signature()
	if want, ok := s.sigs[q.key]; ok && sig != want {
		return elapsed, fmt.Errorf("%s: signature differs from the first response's", q.key)
	}
	s.sigs[q.key] = sig
	s.obs = append(s.obs, observed{
		clientMS: ms(wall),
		miss:     resp.Header.Get("X-Bigfoot-Cache") == "miss",
		phases:   pr.Phases,
	})
	return elapsed, nil
}

// telemetry is a snapshot of the server's own counters.
type telemetry struct {
	runCount            uint64
	runSum, queueSum    float64 // seconds
	cacheHits, cacheMis uint64
}

func (s *svc) telemetry(ctx context.Context) (telemetry, error) {
	h := s.reg.HistogramVec("bigfoot_http_request_seconds", "", nil, "route").With("/v1/run")
	q := s.reg.Histogram("bigfoot_http_queue_wait_seconds", "", nil)
	t := telemetry{runCount: h.Count(), runSum: h.Sum(), queueSum: q.Sum()}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/v1/stats", nil)
	if err != nil {
		return t, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return t, err
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return t, fmt.Errorf("/v1/stats: %w", err)
	}
	t.cacheHits, t.cacheMis = st.Cache.Hits, st.Cache.Misses
	return t, nil
}

// runServiceMixed drives an in-process bigfootd over loopback from one
// caller that sends each request when the previous response has been
// read.  Pass after pass, for the measured phase, it sets up a fresh
// server (so that misses miss again) and sends it the same request
// sequence, so each request's latency is the median of its passes.
func runServiceMixed(ctx context.Context, cfg config) (*run, error) {
	r := newRun(cfg)
	scale, nReqs, named := workloads.DefaultScale(), serviceRequests, hitPrograms
	if cfg.tiny {
		scale, nReqs, named = workloads.TestScale(), 20, hitPrograms[:2]
	}
	var ws []workloads.Workload
	for _, n := range named {
		w, ok := workloads.ByName(n, scale)
		if !ok {
			return nil, fmt.Errorf("no workload %q", n)
		}
		ws = append(ws, w)
	}

	// setUp draws the mix, starts a server and warms every resubmitted
	// key once, returning the server and how long that took.  All
	// servers share one signature table, so a key must answer
	// identically across servers too.
	sigs := map[string]string{}
	var reqs []request
	setUp := func() (*svc, time.Duration, error) {
		runtime.GC() // see repeatSetUp
		r.probe.sample()
		start := cpuTime()
		reqs = serviceMix(cfg.seed, nReqs, ws)
		s := startService(cfg.seed, sigs)
		for _, w := range append(ws, workloads.Quickstart()) {
			for _, dets := range [][]string{{"BF"}, variants} {
				q := request{key: fmt.Sprintf("%s|%v", w.Name, dets), name: w.Name, program: w.Source, detectors: dets}
				if _, err := s.post(ctx, q); err != nil {
					s.close()
					return nil, 0, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		return s, cpuTime() - start, nil
	}

	lat := make(opTimes, nReqs)
	// send posts every request to s in order under tr, calling betweenOps
	// before every 4th, and returns their summed latency (ms).
	send := func(s *svc, tr *tracer) float64 {
		total := 0.0
		for i, q := range reqs {
			if i%4 == 0 {
				r.betweenOps()
			}
			var d time.Duration
			var err error
			at := time.Now()
			tr.timed("service.request", "req#"+strconv.Itoa(i), 0, func() { d, err = s.post(ctx, q) })
			if r.op(err) {
				lat.add(i, timing{at, d})
				total += ms(d)
			}
		}
		return total
	}

	if !cfg.trace {
		var setups []timing
		repeat(cfg.seconds, func(int) {
			at := time.Now()
			s, d, err := setUp()
			if err != nil { // a failed warm-up request fails the pass
				r.op(err)
				return
			}
			setups = append(setups, timing{at, d})
			r.startPass()
			send(s, nil)
			s.close()
		})
		r.metrics["setup_s"] = r.probe.scaledMedianS(setups)
		r.opMetrics(lat.medians(r.probe), true)
		return r, nil
	}

	// Traced: an untraced reference pass, then the same requests traced
	// on a fresh, identically warmed server.  The traced pass's server
	// telemetry gives the per-layer numbers.
	s, _, err := setUp()
	if err != nil {
		return nil, err
	}
	refMS := send(s, nil)
	s.close()
	if s, _, err = setUp(); err != nil {
		return nil, err
	}
	defer s.close()
	before, err := s.telemetry(ctx)
	if err != nil {
		return nil, err
	}
	warmed := len(s.obs)
	tracedMS := send(s, r.spans)
	after, err := s.telemetry(ctx)
	if err != nil {
		return nil, err
	}
	r.metrics["trace_overhead_frac"] = ratio(tracedMS, refMS) - 1
	serviceLayerMetrics(r, before, after, s.obs[warmed:])
	return r, nil
}

// serviceLayerMetrics splits the server's time per request: admission
// queue, run, miss-weighted build, and the rest (admission, report
// assembly, JSON encoding); transport is what the client saw beyond the
// server's own timing.
func serviceLayerMetrics(r *run, before, after telemetry, obs []observed) {
	n := float64(after.runCount - before.runCount)
	if n == 0 || len(obs) == 0 {
		return
	}
	server := (after.runSum - before.runSum) / n * 1000
	queue := (after.queueSum - before.queueSum) / n * 1000
	var run, client, build []float64
	for _, o := range obs {
		run = append(run, ms(o.phases.Run))
		client = append(client, o.clientMS)
		if o.miss {
			build = append(build, ms(o.phases.Parse+o.phases.Instrument+o.phases.Compile))
		}
	}
	missFrac := float64(len(build)) / float64(len(obs))
	buildMiss := 0.0
	if len(build) > 0 {
		buildMiss = mean(build)
	}
	hits, misses := float64(after.cacheHits-before.cacheHits), float64(after.cacheMis-before.cacheMis)
	r.metrics["engine.cache_hit_ratio"] = ratio(hits, hits+misses)
	r.metrics["service.server_ms_mean"] = server
	r.metrics["service.queue_wait_ms_mean"] = queue
	r.metrics["service.run_ms_mean"] = mean(run)
	r.metrics["service.build_ms_mean_miss"] = buildMiss
	r.metrics["service.overhead_ms"] = server - queue - mean(run) - missFrac*buildMiss
	r.metrics["service.transport_ms"] = mean(client) - server
}
