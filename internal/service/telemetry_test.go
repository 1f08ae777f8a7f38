package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"

	"bigfoot/internal/harness"
	"bigfoot/internal/metrics"
)

// newTextLogger builds the Info-level text logger the access-log tests
// capture.
func newTextLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, nil))
}

// metricValue finds one counter/gauge series in a registry snapshot
// (-1 when the series does not exist, distinguishing "absent" from 0).
func metricValue(reg *metrics.Registry, name string, labels ...string) float64 {
	for _, f := range reg.Snapshot() {
		if f.Name != name {
			continue
		}
	series:
		for _, s := range f.Series {
			if len(s.Labels) != len(labels)/2 {
				continue
			}
			for i, l := range s.Labels {
				if l.Name != labels[2*i] || l.Value != labels[2*i+1] {
					continue series
				}
			}
			return s.Value
		}
	}
	return -1
}

// TestRequestID: every response carries X-Request-Id — generated when
// the client sends none, echoed when it sends a sane one, replaced when
// it sends garbage.
func TestRequestID(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	generated := resp.Header.Get(RequestIDHeader)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(generated) {
		t.Errorf("generated id %q, want 16 hex chars", generated)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "client-id-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "client-id-42" {
		t.Errorf("client id not echoed: got %q", got)
	}

	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got == "bad id with spaces" || got == "" {
		t.Errorf("invalid client id handled wrong: got %q", got)
	}
}

// TestMetricsEndpoint: GET /metrics serves the text exposition with the
// engine and HTTP families populated by real traffic.
func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, Config{Metrics: reg})
	if resp, data := postRun(t, ts.URL, RunRequest{Program: clean, Detectors: []string{"BF"}}); resp.StatusCode != 200 {
		t.Fatalf("run failed: %d %s", resp.StatusCode, data)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Errorf("content type %q, want %q", ct, metrics.ContentType)
	}
	for _, want := range []string{
		`bigfoot_http_responses_total{route="/v1/run",status="200"} 1`,
		`bigfoot_engine_runs_total{variant="BF",outcome="ok"} 1`,
		`bigfoot_engine_cache_events_total{event="miss"} 1`,
		"# TYPE bigfoot_http_request_seconds histogram",
		"bigfoot_http_in_flight_requests",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The scrape itself is in flight while serving, so the gauge must
	// read 1 in its own scrape and the draining gauge 0.
	if !strings.Contains(string(body), "bigfoot_http_in_flight_requests 1") {
		t.Errorf("in-flight gauge not 1 during its own scrape:\n%.400s", body)
	}
	if got := metricValue(reg, "bigfoot_http_draining"); got != 0 {
		t.Errorf("draining gauge = %v, want 0", got)
	}
}

// TestVersionEndpoint: /v1/version identifies the service, report
// schema, and toolchain.
func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v Version
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Service != "bigfootd" {
		t.Errorf("service = %q", v.Service)
	}
	if v.ReportVersion != harness.ReportVersion {
		t.Errorf("report version = %d, want %d", v.ReportVersion, harness.ReportVersion)
	}
	if v.Build.GoVersion == "" {
		t.Error("build info has no Go version")
	}
}

// TestStatsTelemetry: /v1/stats reports uptime, build identity, drain
// state, and the session just completed.
func TestStatsTelemetry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postRun(t, ts.URL, RunRequest{Program: clean, Detectors: []string{"BF"}})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v", st.UptimeSeconds)
	}
	if st.Build.GoVersion == "" {
		t.Error("stats carry no build info")
	}
	if st.Draining {
		t.Error("fresh server reports draining")
	}
	if st.Sessions.Completed != 1 {
		t.Errorf("completed sessions = %d, want 1", st.Sessions.Completed)
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLog: each session produces exactly one Info access-log line
// carrying route, status, latency, and cache disposition; health and
// metrics polls stay out of the Info log.
func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	logger := newTextLogger(&buf)
	_, ts := newTestServer(t, Config{Logger: logger})

	postRun(t, ts.URL, RunRequest{Program: clean, Detectors: []string{"BF"}})
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		resp.Body.Close()
	}

	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d access-log lines, want 1 (healthz must be debug):\n%s", len(lines), out)
	}
	for _, want := range []string{"msg=request", "route=/v1/run", "status=200", "cache=miss", "elapsed=", "id="} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("access line missing %q: %s", want, lines[0])
		}
	}
}

// TestAccessLogTrace: traced sessions name their trace directory in the
// access line.
func TestAccessLogTrace(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{Logger: newTextLogger(&buf), TraceDir: t.TempDir()})
	postRun(t, ts.URL, RunRequest{Program: clean, Detectors: []string{"BF"}, Seed: 3})
	if out := buf.String(); !strings.Contains(out, "trace=") || !strings.Contains(out, "-s3") {
		t.Errorf("access line does not carry the trace label:\n%s", out)
	}
}
