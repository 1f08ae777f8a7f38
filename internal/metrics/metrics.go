// Package metrics is the repository's zero-dependency runtime
// telemetry substrate: a registry of named instrument families —
// counters, gauges, and fixed-bucket histograms, optionally labeled —
// with Prometheus text-format exposition (expose.go) and a structured
// snapshot API for tests and JSON export.
//
// The package exists so every layer of the system (engine, cache,
// service) meters itself through one vocabulary instead of
// growing bespoke stat structs, while keeping the repository's
// determinism contract intact.  The rule, enforced by convention and
// pinned by tests in the instrumented packages: instruments are only
// ever fed from *wall-clock-side* observations — request latencies,
// cache traffic, queue depths, run outcomes folded in *after* a run
// completes.  Nothing on the detector or interpreter hot path touches
// an instrument mid-run, so deterministic counters, harness.Signature,
// and the 0 allocs/op check path are byte-for-byte unaffected by
// enabling metrics.
//
// Instruments are safe for concurrent use.  A nil *Registry is valid:
// it hands out detached instruments that record normally but are not
// exposed anywhere, so instrumented code never nil-checks its registry.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Instrument type names, as exposed in # TYPE lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// DurationBuckets is the default latency histogram layout, in seconds:
// half a millisecond to ten seconds in roughly 1-2.5-5 steps, wide
// enough for both sub-millisecond cache hits and multi-second detection
// sessions.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

// Counter is a monotonically non-decreasing value.  The zero value is
// usable (detached from any registry).
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d, which must be non-negative; negative deltas are dropped
// (a counter never goes down).
func (c *Counter) Add(d float64) {
	if d < 0 {
		return
	}
	addFloat(&c.bits, d)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.  The zero value is usable.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d float64) { addFloat(&g.bits, d) }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat atomically adds d to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets and tracks their
// count and sum.  Buckets are defined by their upper bounds (le);
// observations above the last bound land in the implicit +Inf bucket.
// Construct through a Registry (or HistogramVec) so the bounds are
// validated; the zero value is not usable.
type Histogram struct {
	bounds []float64       // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    atomic.Uint64   // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ---------------------------------------------------------------------------
// Families and registry
// ---------------------------------------------------------------------------

// family is one named metric family: a type, a help string, a label
// schema, and the series instantiated under it.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
}

type series struct {
	values []string // label values, aligned with family.labels
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds metric families and renders them for exposition.  Use
// NewRegistry; the nil registry is also valid and hands out working,
// detached instruments.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup returns the family registered under name, creating it on first
// use.  Re-registering an existing name is idempotent when the type and
// label schema match and panics otherwise — two call sites disagreeing
// about a family's shape is a programming error, not a runtime
// condition.  A nil registry returns a detached family that records but
// is never exposed.
func (r *Registry) lookup(name, help, typ string, labels []string, buckets []float64) *family {
	mustValidName(name)
	for _, l := range labels {
		mustValidName(l)
		if l == "le" && typ == TypeHistogram {
			panic(`metrics: histogram label "le" is reserved`)
		}
	}
	if typ == TypeHistogram {
		if len(buckets) == 0 {
			buckets = DurationBuckets
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("metrics: %s: histogram buckets not sorted: %v", name, buckets))
		}
		if n := len(buckets); n > 0 && math.IsInf(buckets[n-1], +1) {
			buckets = buckets[:n-1] // +Inf is implicit
		}
	}
	fresh := &family{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...), buckets: buckets,
		series: map[string]*series{},
	}
	if r == nil {
		return fresh
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("metrics: %s re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	r.families[name] = fresh
	return fresh
}

// get returns the series for the given label values, creating it on
// first use.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s: %d label values for %d labels %v",
			f.name, len(values), len(f.labels), f.labels))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.typ {
	case TypeCounter:
		s.c = &Counter{}
	case TypeGauge:
		s.g = &Gauge{}
	case TypeHistogram:
		s.h = newHistogram(f.buckets)
	}
	f.series[key] = s
	return s
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, TypeCounter, nil, nil).get(nil).c
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, TypeGauge, nil, nil).get(nil).g
}

// Histogram registers (or finds) an unlabeled histogram.  buckets are
// the upper bounds in ascending order; nil uses DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.lookup(name, help, TypeHistogram, nil, buckets).get(nil).h
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, TypeCounter, labels, nil)}
}

// With returns the counter for the given label values (one per declared
// label, in order), creating the series on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// HistogramVec is a histogram family keyed by label values; every
// series shares the family's bucket layout.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.lookup(name, help, TypeHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).h }

// mustValidName panics unless name matches the Prometheus metric/label
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func mustValidName(name string) {
	if !ValidName(name) {
		panic(fmt.Sprintf("metrics: invalid name %q", name))
	}
}

// ValidName reports whether name is a legal metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
