package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bigfoot/internal/harness"
	"bigfoot/internal/metrics"
)

const racy = `class Counter { field hits; }
setup {
  c = new Counter;
}
thread {
  for (i = 0; i < 60; i = i + 1) {
    h = c.hits;
    c.hits = h + 1;
  }
}
thread {
  for (i = 0; i < 60; i = i + 1) {
    h = c.hits;
    c.hits = h + 1;
  }
}
`

const clean = `class Cell { field v; }
setup {
  a = new Cell;
  b = new Cell;
}
thread {
  for (i = 0; i < 40; i = i + 1) { a.v = i; }
}
thread {
  for (i = 0; i < 40; i = i + 1) { b.v = i; }
}
`

const spinner = `class C { field v; }
setup { c = new C; }
thread {
  for (i = 0; i < 10000000; i = i + 1) { c.v = i; }
}
`

const crashing = `setup { assert 1 == 2; }`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postRun(t *testing.T, url string, req RunRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func errorCode(t *testing.T, data []byte) string {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("error body is not an ErrorResponse: %v\n%s", err, data)
	}
	return er.Code
}

// TestRunEndpoint: a well-formed submission returns the versioned
// harness.Report JSON, readable by the same reader bfbench uses.
func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postRun(t, ts.URL, RunRequest{Name: "racy", Program: racy, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Bigfoot-Cache"); got != "miss" {
		t.Errorf("first submission cache header = %q, want miss", got)
	}
	rep, err := harness.ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("response is not a valid report: %v", err)
	}
	if len(rep.Programs) != 1 || rep.Programs[0].Name != "racy" {
		t.Fatalf("report shape: %+v", rep.Programs)
	}
	pr := rep.Programs[0]
	if len(pr.Detectors) != 5 {
		t.Errorf("default run must evaluate all five detectors, got %d", len(pr.Detectors))
	}
	for name, dr := range pr.Detectors {
		if dr.Races == 0 {
			t.Errorf("%s missed the race", name)
		}
	}

	// Resubmission hits the artifact cache.
	resp, _ = postRun(t, ts.URL, RunRequest{Name: "racy", Program: racy, Seed: 1})
	if got := resp.Header.Get("X-Bigfoot-Cache"); got != "hit" {
		t.Errorf("resubmission cache header = %q, want hit", got)
	}
}

// TestDetectorSelection: a subset request evaluates exactly that set.
func TestDetectorSelection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postRun(t, ts.URL, RunRequest{Program: clean, Detectors: []string{"BF", "FT"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	rep, err := harness.ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	dets := rep.Programs[0].Detectors
	if len(dets) != 2 || dets["FT"] == nil || dets["BF"] == nil {
		t.Fatalf("got detectors %v, want exactly FT and BF", dets)
	}
}

// TestErrorCodes pins the audited error table: usage 400, program 422,
// budget 408 — mirroring bfbench's exit-code discipline.
func TestErrorCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTimeout: 2 * time.Second})
	cases := []struct {
		name   string
		req    RunRequest
		status int
		code   string
	}{
		{"empty program", RunRequest{}, http.StatusBadRequest, "usage"},
		{"unknown detector", RunRequest{Program: clean, Detectors: []string{"ZZ"}}, http.StatusBadRequest, "usage"},
		{"parse error", RunRequest{Program: "class {"}, http.StatusUnprocessableEntity, "program"},
		{"runtime fault", RunRequest{Program: crashing}, http.StatusUnprocessableEntity, "program"},
		{"step budget", RunRequest{Program: spinner, MaxSteps: 1000}, http.StatusRequestTimeout, "budget"},
		{"wall budget", RunRequest{Program: spinner, TimeoutMS: 30}, http.StatusRequestTimeout, "budget"},
		{"negative timeout", RunRequest{Program: clean, TimeoutMS: -5}, http.StatusBadRequest, "usage"},
	}
	for _, tc := range cases {
		resp, data := postRun(t, ts.URL, tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
			continue
		}
		if code := errorCode(t, data); code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, code, tc.code)
		}
	}

	// Malformed JSON is a usage error too, and so is an unknown field
	// such as "trials".
	trials, err := json.Marshal(map[string]any{"program": clean, "trials": 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"malformed body": "{nope", "trials field": string(trials)} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || errorCode(t, data) != "usage" {
			t.Errorf("%s: status %d body %s", name, resp.StatusCode, data)
		}
	}
}

// TestForkArityMismatchKeepsServing: bfj.CheckProgram admits a fork
// whose arity some class declares, even when the receiver's class
// declares the method with another arity.  That request fails as a
// program error, and the daemon goes on serving.
func TestForkArityMismatchKeepsServing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const forkArity = `class A { method m() { x = 1; } }
class B { method m(p, q, r) { x = p; } }
setup { a = new A; h = fork a.m(1, 2, 3); join h; }
`
	resp, data := postRun(t, ts.URL, RunRequest{Program: forkArity})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, data)
	}
	if code := errorCode(t, data); code != "program" {
		t.Errorf("code %q, want %q", code, "program")
	}
	if !bytes.Contains(data, []byte("method A.m expects 0 args, got 3")) {
		t.Errorf("error does not name the arity mismatch: %s", data)
	}

	vresp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK {
		t.Errorf("/v1/version after the failed request: status %d", vresp.StatusCode)
	}
	if resp, data := postRun(t, ts.URL, RunRequest{Program: clean}); resp.StatusCode != http.StatusOK {
		t.Errorf("run after the failed request: status %d (%s)", resp.StatusCode, data)
	}
}

// TestDeepNestingKeepsServing: a source of 450k nested parentheses, under
// the request size limit, once overflowed the parser's stack and killed
// the daemon.  It fails as a program error, and the daemon goes on
// serving.
func TestDeepNestingKeepsServing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const d = 450000
	deep := "setup { x = " + strings.Repeat("(", d) + "1" + strings.Repeat(")", d) + "; }"
	resp, data := postRun(t, ts.URL, RunRequest{Program: deep})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%.200s)", resp.StatusCode, data)
	}
	if code := errorCode(t, data); code != "program" {
		t.Errorf("code %q, want %q", code, "program")
	}
	if !bytes.Contains(data, []byte("nested deeper than")) {
		t.Errorf("error does not name the nesting limit: %.200s", data)
	}

	vresp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK {
		t.Errorf("/v1/version after the failed request: status %d", vresp.StatusCode)
	}
	if resp, data := postRun(t, ts.URL, RunRequest{Program: clean}); resp.StatusCode != http.StatusOK {
		t.Errorf("run after the failed request: status %d (%s)", resp.StatusCode, data)
	}
}

// TestHugeArrayKeepsServing: a 41-byte program asking for a
// 10^15-element array once panicked inside a thread goroutine and killed
// the daemon.  It fails as a program error, and the daemon goes on
// serving.
func TestHugeArrayKeepsServing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postRun(t, ts.URL, RunRequest{Program: "setup { a = newarray(1000000000000000); }"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%.200s)", resp.StatusCode, data)
	}
	if code := errorCode(t, data); code != "program" {
		t.Errorf("code %q, want %q", code, "program")
	}
	if !bytes.Contains(data, []byte("MaxHeapWords")) {
		t.Errorf("error does not name the heap limit: %.200s", data)
	}

	vresp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK {
		t.Errorf("/v1/version after the failed request: status %d", vresp.StatusCode)
	}
	if resp, data := postRun(t, ts.URL, RunRequest{Program: clean}); resp.StatusCode != http.StatusOK {
		t.Errorf("run after the failed request: status %d (%s)", resp.StatusCode, data)
	}
}

// TestStatsEndpoint: cache counters are surfaced and move with traffic.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postRun(t, ts.URL, RunRequest{Program: clean})
	postRun(t, ts.URL, RunRequest{Program: clean})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits == 0 || st.Cache.Misses == 0 {
		t.Errorf("cache counters did not move: %+v", st.Cache)
	}
	if st.Sessions.Completed != 2 {
		t.Errorf("completed sessions = %d, want 2", st.Sessions.Completed)
	}
}

// TestGracefulDrain: draining lets the in-flight session finish, while
// new sessions are refused with 503/draining.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxTimeout: 30 * time.Second})

	started := make(chan struct{})
	result := make(chan int, 1)
	go func() {
		close(started)
		resp, _ := postRun(t, ts.URL, RunRequest{Program: racy})
		result <- resp.StatusCode
	}()
	<-started
	// Wait until the session is admitted before draining.
	deadline := time.Now().Add(5 * time.Second)
	for s.active.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	select {
	case code := <-result:
		if code != http.StatusOK {
			t.Errorf("in-flight session finished with %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight session never finished")
	}

	resp, data := postRun(t, ts.URL, RunRequest{Program: clean})
	if resp.StatusCode != http.StatusServiceUnavailable || errorCode(t, data) != "draining" {
		t.Errorf("post-drain request: status %d body %s", resp.StatusCode, data)
	}
}

// TestLoadConcurrentMixed is the PR's acceptance load test: hundreds of
// concurrent requests with mixed programs, detector subsets, and seeds.
// Every response must be 200 or an audited budget error; per-(program,
// seed, detectors) report signatures must be identical across load-
// generator concurrency levels; the artifact cache must take hits; the
// session counters must split completed/failed exactly like
// responses_total; and a graceful drain must complete afterwards with
// zero sessions lost.  A second phase offers 16x MaxInFlight against a
// tightly-limited server: the only statuses are 200/408/429, 429s carry
// Retry-After, signatures stay byte-identical to the unloaded run, the
// queue-depth gauge returns to zero, and no goroutines leak.
func TestLoadConcurrentMixed(t *testing.T) {
	reg := metrics.NewRegistry()
	s, ts := newTestServer(t, Config{MaxTimeout: 60 * time.Second, Metrics: reg})

	type reqCase struct {
		key string
		req RunRequest
	}
	programs := []struct {
		name, src string
	}{{"racy", racy}, {"clean", clean}}
	detectorSets := [][]string{nil, {"FT", "BF"}, {"BF"}, {"RC", "SC"}}
	var cases []reqCase
	for _, p := range programs {
		for di, det := range detectorSets {
			for seed := int64(0); seed < 3; seed++ {
				cases = append(cases, reqCase{
					key: fmt.Sprintf("%s/%d/%d", p.name, di, seed),
					req: RunRequest{Name: p.name, Program: p.src, Detectors: det, Seed: seed},
				})
			}
		}
	}
	// Budget-bound requests ride along: they must fail with exactly the
	// audited budget code and nothing else.
	budget := RunRequest{Name: "spin", Program: spinner, MaxSteps: 2000}

	const perLevel = 120 // two levels -> 240 total concurrent requests
	signatures := make(map[string]string, len(cases))

	for round, concurrency := range []int{8, 24} {
		sem := make(chan struct{}, concurrency)
		var wg sync.WaitGroup
		var mu sync.Mutex
		nonBudgetErrs := 0
		budgetOK := 0
		for i := 0; i < perLevel; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				if i%10 == 9 { // every tenth request exhausts its budget
					resp, data := postRun(t, ts.URL, budget)
					mu.Lock()
					defer mu.Unlock()
					if resp.StatusCode == http.StatusRequestTimeout && errorCode(t, data) == "budget" {
						budgetOK++
					} else {
						nonBudgetErrs++
						t.Errorf("budget request: status %d body %.200s", resp.StatusCode, data)
					}
					return
				}
				tc := cases[i%len(cases)]
				resp, data := postRun(t, ts.URL, tc.req)
				if resp.StatusCode != http.StatusOK {
					mu.Lock()
					nonBudgetErrs++
					t.Errorf("%s: status %d body %.200s", tc.key, resp.StatusCode, data)
					mu.Unlock()
					return
				}
				rep, err := harness.ReadJSON(bytes.NewReader(data))
				if err != nil {
					mu.Lock()
					nonBudgetErrs++
					t.Errorf("%s: unreadable report: %v", tc.key, err)
					mu.Unlock()
					return
				}
				sig := rep.Signature()
				mu.Lock()
				defer mu.Unlock()
				if prev, ok := signatures[tc.key]; ok {
					if prev != sig {
						t.Errorf("%s: signature diverged across concurrency levels:\n--- before\n%s\n--- now\n%s", tc.key, prev, sig)
					}
				} else {
					signatures[tc.key] = sig
				}
			}(i)
		}
		wg.Wait()
		if nonBudgetErrs != 0 {
			t.Fatalf("round %d: %d non-budget errors", round, nonBudgetErrs)
		}
		if budgetOK == 0 {
			t.Errorf("round %d: no budget request exercised the audited path", round)
		}
	}

	if len(signatures) != len(cases) {
		t.Errorf("covered %d distinct request shapes, want %d", len(signatures), len(cases))
	}
	st := s.Engine().Cache().Stats()
	if st.Hits == 0 {
		t.Errorf("warm cache took no hits under load: %+v", st)
	}
	t.Logf("load: %d requests, cache %+v", 2*perLevel, st)

	// The telemetry layer must account for exactly this traffic: every
	// response counted under its status, every session timed, nothing
	// left in flight, and the exposed cache counters agreeing with the
	// cache's own snapshot.
	okResponses := metricValue(reg, "bigfoot_http_responses_total", "route", "/v1/run", "status", "200")
	budgetResponses := metricValue(reg, "bigfoot_http_responses_total", "route", "/v1/run", "status", "408")
	if int(okResponses)+int(budgetResponses) != 2*perLevel {
		t.Errorf("responses_total 200=%v + 408=%v, want %d total", okResponses, budgetResponses, 2*perLevel)
	}
	if budgetResponses == 0 {
		t.Error("no budget responses metered under load")
	}
	if got := metricValue(reg, "bigfoot_http_in_flight_requests"); got != 0 {
		t.Errorf("in-flight gauge = %v after load, want 0", got)
	}
	if got := metricValue(reg, "bigfoot_engine_cache_events_total", "event", "hit"); got != float64(st.Hits) {
		t.Errorf("cache hit series = %v, cache snapshot says %d", got, st.Hits)
	}
	if got := metricValue(reg, "bigfoot_engine_runs_total", "variant", "BF", "outcome", "race"); got <= 0 {
		t.Errorf("runs_total{BF,race} = %v, want > 0", got)
	}
	var reqCount uint64
	for _, f := range reg.Snapshot() {
		if f.Name != "bigfoot_http_request_seconds" {
			continue
		}
		for _, sr := range f.Series {
			if len(sr.Labels) == 1 && sr.Labels[0].Value == "/v1/run" {
				reqCount = sr.Count
			}
		}
	}
	if reqCount != uint64(2*perLevel) {
		t.Errorf("request_seconds{/v1/run} count = %d, want %d", reqCount, 2*perLevel)
	}

	// The session counters must split exactly like responses_total:
	// completed counts 200s only, failed counts the audited errors (the
	// 24 budget requests), rejected counts admission refusals (none at
	// this concurrency — the default queue never fills).
	wantFailed := uint64(2 * perLevel / 10)
	if got := s.completed.Load(); got != uint64(2*perLevel)-wantFailed {
		t.Errorf("completed sessions = %d, want %d", got, uint64(2*perLevel)-wantFailed)
	}
	if got := s.failed.Load(); got != wantFailed {
		t.Errorf("failed sessions = %d, want %d", got, wantFailed)
	}
	if got := s.rejected.Load(); got != 0 {
		t.Errorf("rejected sessions = %d, want 0 (queue never fills at this concurrency)", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain after load: %v", err)
	}
	if a := s.active.Load(); a != 0 {
		t.Errorf("%d sessions still active after drain", a)
	}

	// --- Overload burst -------------------------------------------------
	// A fresh server with tight limits (2 running, 4 queued) is offered
	// 32 sessions: six slow "holders" saturate the slots and fill the
	// queue, then 26 normal sessions arrive at once.  Admission must
	// shed the excess as 429 without corrupting anything: every 200's
	// signature matches the unloaded run above.
	goroutineBaseline := runtime.NumGoroutine()
	breg := metrics.NewRegistry()
	bs, bts := newTestServer(t, Config{
		MaxTimeout: 60 * time.Second, MaxInFlight: 2, MaxQueue: 4, Metrics: breg,
	})

	holder := RunRequest{Name: "hold", Program: spinner, Detectors: []string{"FT"}, MaxSteps: 8_000_000}
	var bwg sync.WaitGroup
	var bmu sync.Mutex
	statusCount := map[int]int{}
	for i := 0; i < 6; i++ {
		bwg.Add(1)
		go func() {
			defer bwg.Done()
			resp, data := postRun(t, bts.URL, holder)
			bmu.Lock()
			defer bmu.Unlock()
			statusCount[resp.StatusCode]++
			if resp.StatusCode != http.StatusRequestTimeout && resp.StatusCode != http.StatusOK {
				t.Errorf("holder: status %d body %.200s", resp.StatusCode, data)
			}
		}()
	}
	waitUntil(t, func() bool { return bs.gate.queueLen() == 4 })

	for i := 0; i < 26; i++ {
		bwg.Add(1)
		go func(i int) {
			defer bwg.Done()
			tc := cases[i%len(cases)]
			resp, data := postRun(t, bts.URL, tc.req)
			bmu.Lock()
			defer bmu.Unlock()
			statusCount[resp.StatusCode]++
			switch resp.StatusCode {
			case http.StatusOK:
				rep, err := harness.ReadJSON(bytes.NewReader(data))
				if err != nil {
					t.Errorf("%s under overload: unreadable report: %v", tc.key, err)
					return
				}
				if sig := rep.Signature(); sig != signatures[tc.key] {
					t.Errorf("%s: signature under overload differs from the unloaded run:\n--- unloaded\n%s\n--- overloaded\n%s", tc.key, signatures[tc.key], sig)
				}
			case http.StatusRequestTimeout:
				if code := errorCode(t, data); code != "budget" {
					t.Errorf("%s: 408 with code %q, want budget", tc.key, code)
				}
			case http.StatusTooManyRequests:
				if got := resp.Header.Get("Retry-After"); got == "" {
					t.Errorf("%s: 429 without a Retry-After header", tc.key)
				}
				if code := errorCode(t, data); code != "overloaded" {
					t.Errorf("%s: 429 with code %q, want overloaded", tc.key, code)
				}
			default:
				t.Errorf("%s under overload: status %d body %.200s", tc.key, resp.StatusCode, data)
			}
		}(i)
	}
	bwg.Wait()

	if statusCount[http.StatusTooManyRequests] == 0 {
		t.Error("overload burst shed nothing: no 429 responses")
	}
	if statusCount[http.StatusOK] == 0 && statusCount[http.StatusRequestTimeout] == 0 {
		t.Error("overload burst admitted nothing at all")
	}
	t.Logf("overload burst: statuses %v", statusCount)

	if got := metricValue(breg, "bigfoot_http_queue_depth"); got != 0 {
		t.Errorf("queue-depth gauge = %v after the burst, want 0", got)
	}
	if bs.gate.queued() == 0 {
		t.Error("no session ever waited in the queue during the burst")
	}
	if got, want := bs.rejected.Load(), uint64(statusCount[http.StatusTooManyRequests]); got != want {
		t.Errorf("rejected counter = %d, want %d (the 429 count)", got, want)
	}

	bctx, bcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer bcancel()
	if err := bs.Drain(bctx); err != nil {
		t.Errorf("drain after burst: %v", err)
	}

	// No goroutine leak: queue waiters, session workers, and HTTP
	// keep-alives must all wind down (tolerance covers runtime jitter).
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutineBaseline+12 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutineBaseline+12 {
		t.Errorf("goroutines after burst: %d, baseline %d — leak suspected", n, goroutineBaseline)
	}
}

// TestDrainRejectsQueued: a drain that begins while sessions are queued
// must reject the queued ones with 503 "draining" while the running
// session is allowed to finish.
func TestDrainRejectsQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxTimeout: 60 * time.Second, MaxInFlight: 1, MaxQueue: 4})

	runningDone := make(chan int, 1)
	go func() {
		resp, _ := postRun(t, ts.URL, RunRequest{
			Name: "hold", Program: spinner, Detectors: []string{"FT"}, MaxSteps: 8_000_000,
		})
		runningDone <- resp.StatusCode
	}()
	waitUntil(t, func() bool { return s.active.Load() == 1 })

	type reply struct {
		status int
		code   string
	}
	queuedDone := make(chan reply, 1)
	go func() {
		resp, data := postRun(t, ts.URL, RunRequest{Program: racy})
		queuedDone <- reply{resp.StatusCode, errorCode(t, data)}
	}()
	waitUntil(t, func() bool { return s.gate.queueLen() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	q := <-queuedDone
	if q.status != http.StatusServiceUnavailable || q.code != "draining" {
		t.Errorf("queued session got %d %q, want 503 draining", q.status, q.code)
	}
	if code := <-runningDone; code != http.StatusOK && code != http.StatusRequestTimeout {
		t.Errorf("running session finished with %d, want 200 or 408", code)
	}
	if got := s.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestOversizedBody: a body over the limit is the client's fault and
// must come back as 413 "too-large" naming the limit — not as a generic
// 400 decode error.
func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	big, err := json.Marshal(RunRequest{Program: strings.Repeat("// padding\n", 200)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, data)
	}
	if code := errorCode(t, data); code != "too-large" {
		t.Errorf("code %q, want %q", code, "too-large")
	}
	if !bytes.Contains(data, []byte("512")) {
		t.Errorf("error message does not name the limit: %s", data)
	}

	// At the limit exactly, requests still work.
	small, _ := json.Marshal(RunRequest{Program: clean})
	if int64(len(small)) > 512 {
		t.Fatalf("test assumption broken: clean request is %d bytes", len(small))
	}
	resp2, data2 := postRun(t, ts.URL, RunRequest{Program: clean})
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("in-limit request: status %d (%s)", resp2.StatusCode, data2)
	}
}

// TestTraceDirLabelsRuns: with TraceDir configured every run is
// recorded under a content-hash+seed subdirectory, the response names
// it in X-Bigfoot-Trace, and the recorded traces replay offline to the
// same signature the live response reported.
func TestTraceDirLabelsRuns(t *testing.T) {
	root := t.TempDir()
	_, ts := newTestServer(t, Config{TraceDir: root})
	resp, data := postRun(t, ts.URL, RunRequest{Program: racy, Seed: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, data)
	}
	label := resp.Header.Get("X-Bigfoot-Trace")
	if label == "" {
		t.Fatal("no X-Bigfoot-Trace header")
	}
	if !strings.HasSuffix(label, "-s5") {
		t.Errorf("label %q does not carry the seed", label)
	}
	dir := filepath.Join(root, label)
	files, err := filepath.Glob(filepath.Join(dir, "*"+harness.TraceExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 6 { // base + five detectors
		t.Fatalf("recorded %d traces, want 6: %v", len(files), files)
	}

	live, err := harness.ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := harness.ReplayDir(dir, harness.Options{Seed: 5, Trials: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replayed.Signature(), live.Signature(); got != want {
		t.Errorf("replayed signature differs from the live response:\nlive:\n%s\nreplayed:\n%s", want, got)
	}
}
