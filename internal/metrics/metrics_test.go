package metrics

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a test counter")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	c.Add(-1) // dropped: counters never decrease
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter after negative add = %v, want 3.5", got)
	}
	// Re-registration under the same shape returns the same instrument.
	if again := r.Counter("test_total", "a test counter"); again != c {
		t.Error("re-registration did not return the existing counter")
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("test_gauge", "")
	g.Set(10)
	g.Dec()
	g.Add(0.5)
	if got := g.Value(); got != 9.5 {
		t.Errorf("gauge = %v, want 9.5", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewRegistry().Histogram("test_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	h.ObserveDuration(50 * time.Millisecond)
	if got := h.Count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+2+100+0.05; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Bucket placement: le is inclusive (0.1 lands in the 0.1 bucket),
	// and 100 overflows into +Inf only.
	snap := snapshotOf(t, h, []float64{0.1, 1, 10})
	wantCum := []uint64{3, 4, 5, 6}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %v cumulative = %d, want %d", b.LE, b.Count, wantCum[i])
		}
	}
}

// snapshotOf snapshots a lone histogram through a fresh family.
func snapshotOf(t *testing.T, h *Histogram, bounds []float64) SeriesSnapshot {
	t.Helper()
	f := &family{name: "x", typ: TypeHistogram, buckets: bounds, series: map[string]*series{"": {h: h}}}
	fs := f.snapshot()
	if len(fs.Series) != 1 {
		t.Fatalf("series = %d, want 1", len(fs.Series))
	}
	return fs.Series[0]
}

func TestVecSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("requests_total", "", "route", "status")
	a := v.With("/v1/run", "200")
	b := v.With("/v1/run", "200")
	if a != b {
		t.Error("same label values produced distinct series")
	}
	c := v.With("/v1/run", "408")
	if a == c {
		t.Error("distinct label values shared a series")
	}
	a.Inc()
	a.Inc()
	c.Inc()
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Series) != 2 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	if snap[0].Series[0].Value != 2 || snap[0].Series[1].Value != 1 {
		t.Errorf("series values: %+v", snap[0].Series)
	}
}

func TestNilRegistryHandsOutWorkingInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("detached_total", "")
	c.Inc()
	if c.Value() != 1 {
		t.Error("detached counter did not count")
	}
	h := r.HistogramVec("detached_seconds", "", nil, "variant").With("BF")
	h.Observe(0.5)
	if h.Count() != 1 {
		t.Error("detached histogram did not count")
	}
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil registry snapshot = %v, want nil", got)
	}
	if err := (*Registry)(nil).WriteText(io.Discard); err != nil {
		t.Errorf("nil registry WriteText: %v", err)
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	for _, bad := range []string{"", "0leading", "has-dash", "has space", "quo\"te"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			NewRegistry().Counter(bad, "")
		}()
	}
	// Valid names must not panic.
	for _, ok := range []string{"a", "_x", "ns:sub_total", "x9"} {
		NewRegistry().Counter(ok, "")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	for _, f := range []func(){
		func() { r.Gauge("x_total", "") },
		func() { r.CounterVec("x_total", "", "route") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("shape mismatch did not panic")
				}
			}()
			f()
		}()
	}
}

func TestReservedHistogramLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error(`histogram label "le" did not panic`)
		}
	}()
	NewRegistry().HistogramVec("h_seconds", "", nil, "le")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	h := r.Histogram("conc_seconds", "", []float64{1})
	vec := r.CounterVec("conc_vec_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 3))
				vec.With("a").Inc()
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %v, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	if vec.With("a").Value() != 8000 {
		t.Errorf("vec counter = %v, want 8000", vec.With("a").Value())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("handler_total", "served").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("content type %q, want %q", ct, ContentType)
	}
	body := rec.Body.String()
	for _, want := range []string{"# HELP handler_total served", "# TYPE handler_total counter", "handler_total 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("body missing %q:\n%s", want, body)
		}
	}
}
