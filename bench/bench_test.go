package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"bigfoot/internal/harness"
	"bigfoot/internal/workloads"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median.
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{5, 1, 4}, 1, 4, 5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 60, 90},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestHarrellDavisMatchesReference(t *testing.T) {
	// Expected values from a direct evaluation of the Harrell–Davis
	// weights with the same incomplete beta function in Python.
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.5, 5.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.9, 9.435115176660435},
		{[]float64{3.5, 1.25, 7, 2}, 0.9, 6.566566420351378},
		{[]float64{5}, 0.5, 5},
		{[]float64{10, 20}, 0.5, 15},
	} {
		if got := hdQuantile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("hdQuantile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := regIncBeta(2.5, 1.5, 0.3); math.Abs(got-0.08894372317066564) > 1e-12 {
		t.Errorf("I_0.3(2.5, 1.5) = %v", got)
	}
	if got := regIncBeta(9.9, 1.1, 0.9); math.Abs(got-0.39258027037075394) > 1e-12 {
		t.Errorf("I_0.9(9.9, 1.1) = %v", got)
	}
	if hdQuantile(nil, 0.5) != 0 {
		t.Error("no values must give 0")
	}
}

func TestPercentileTenBeyondRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	if r := rankOf(1000, 0.99); r != 989 {
		t.Errorf("rank of p99 among 1000 = %d, want 989", r)
	}
	if r := rankOf(1000, 0.5); r != 499 {
		t.Errorf("rank of p50 among 1000 = %d, want 499", r)
	}
	// 1000 samples put exactly 10 beyond p99; 999 put only 9.
	if b := beyond(1000, 0.99); b != 10 {
		t.Errorf("beyond(1000, p99) = %d, want 10", b)
	}
	if b := beyond(999, 0.99); b >= minBeyond {
		t.Errorf("beyond(999, p99) = %d, want fewer than %d", b, minBeyond)
	}
	if b := beyond(100, 0.90); b != minBeyond {
		t.Errorf("beyond(100, p90) = %d, want %d", b, minBeyond)
	}
	r := &run{metrics: map[string]float64{}}
	r.opMetrics(xs[:99], true)
	if len(r.notes) != 1 {
		t.Errorf("a p90 over 99 sampled ops should be noted as thin, notes %v", r.notes)
	}
	r = &run{metrics: map[string]float64{}}
	r.opMetrics(xs[:42], false)
	if len(r.notes) != 0 {
		t.Errorf("a p90 over a fixed set of ops is exact, notes %v", r.notes)
	}
}

func TestServiceMixHoldsProportionsForEverySeed(t *testing.T) {
	named := []workloads.Workload{{Name: "a", Source: "x"}, {Name: "b", Source: "y"}}
	for seed := int64(1); seed <= 3; seed++ {
		// Two blocks of 20: 8 misses, 30 resubmissions, 2 quickstart.
		count := map[string]int{}
		for _, q := range serviceMix(seed, 40, named) {
			if q.miss {
				count["miss"]++
			} else {
				count[q.name]++
			}
			if len(q.detectors) == len(variants) {
				count["all five"]++
			}
		}
		want := map[string]int{"miss": 8, "quickstart": 2, "a": 15, "b": 15, "all five": 10}
		for k, v := range want {
			if count[k] != v {
				t.Errorf("seed %d: %d %s requests, want %d (mix %v)", seed, count[k], k, v, count)
			}
		}
	}
	a, b := serviceMix(7, 20, named), serviceMix(7, 20, named)
	for i := range a {
		if a[i].key != b[i].key || a[i].program != b[i].program {
			t.Fatal("the same seed must draw the same mix")
		}
	}
	// Another seed sends the same requests in another order.
	c := serviceMix(8, 20, named)
	count := map[string]int{}
	reordered := false
	for i := range a {
		count[a[i].key+a[i].program]++
		count[c[i].key+c[i].program]--
		reordered = reordered || a[i].key != c[i].key
	}
	for k, n := range count {
		if n != 0 {
			t.Fatalf("seeds 7 and 8 differ in request %.40q", k)
		}
	}
	if !reordered {
		t.Error("seeds 7 and 8 drew the same order")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 25 * ms, End: 35 * ms},  // grandchild
		{ID: 5, Parent: 1, Name: "d", Start: 90 * ms, End: 120 * ms}, // overruns root
		{ID: 6, Name: "other", Start: 0, End: 5 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 10 * ms, 30 * ms, 5 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}

	// Stages a callee timed itself become consecutive children from the
	// parent's start.
	tr := newTracer()
	id := tr.begin("build", "op", 0)
	tr.end(id)
	tr.stages(id, "op", stage{"parse", 2 * ms}, stage{"compile", 3 * ms})
	got := tr.snapshot()
	if len(got) != 3 || got[1].Parent != id || got[2].Parent != id ||
		got[1].Start != got[0].Start || got[1].End != got[0].Start+2*ms ||
		got[2].Start != got[1].End || got[2].dur() != 3*ms {
		t.Errorf("stages recorded %+v", got)
	}
}

func TestTracerRecordsNothingWhenNil(t *testing.T) {
	var tr *tracer
	called := false
	if d := tr.timed("x", "op", tr.begin("root", "op", 0), func() { called = true }); d < 0 || !called {
		t.Fatal("nil tracer must still run and time the call")
	}
	if tr.snapshot() != nil {
		t.Fatal("nil tracer recorded spans")
	}
}

// TestScaleUsesProbeSamplesNearTheMeasurement pins how a timing is
// scaled: by the median of the probe samples within probeWindow of it,
// by the nearest sample when none is that close, and not at all before
// any sample.
func TestScaleUsesProbeSamplesNearTheMeasurement(t *testing.T) {
	p := newProbe()
	if got := p.scaleAt(time.Now()); got != 1 {
		t.Errorf("scale with no sample = %v, want 1", got)
	}
	t0 := time.Now()
	for i, took := range []float64{2, 4, 3, 8} { // at 0, 1, 2 s and 20 s
		at := t0.Add(time.Duration(i) * time.Second)
		if i == 3 {
			at = t0.Add(20 * time.Second)
		}
		p.when = append(p.when, at)
		p.took = append(p.took, took*probeRefMS)
	}
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{
		{500 * time.Millisecond, 1.0 / 3},    // samples at 0, 1 and 2 s: median 3
		{2500 * time.Millisecond, 1.0 / 3.5}, // samples at 1 and 2 s
		{10 * time.Second, 1.0 / 3},          // none within 2 s; nearest is at 2 s
		{12 * time.Second, 1.0 / 8},          // none within 2 s; nearest is at 20 s
		{19 * time.Second, 1.0 / 8},
		{-5 * time.Second, 1.0 / 2}, // before every sample: the first
		{60 * time.Second, 1.0 / 8}, // after every sample: the last
	} {
		if got := p.scaleAt(t0.Add(c.at)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("scale at %v = %v, want %v", c.at, got, c.want)
		}
	}
	// An op's latency is the median over passes of its scaled times:
	// 10, 2 and 10 ms here, where the unscaled median would be 30.
	ops := make(opTimes, 2)
	ops.add(0, timing{t0, 30 * time.Millisecond})
	ops.add(0, timing{t0.Add(20 * time.Second), 16 * time.Millisecond})
	ops.add(0, timing{t0.Add(19 * time.Second), 80 * time.Millisecond})
	if got := ops.medians(p); len(got) != 1 || math.Abs(got[0]-10) > 1e-9 {
		t.Errorf("medians = %v, want one op at 10 ms (ops never timed are left out)", got)
	}
}

// TestCPUTimeLeavesOutWaiting pins the property the bench's timings
// rest on: time the process spends not running does not count.
func TestCPUTimeLeavesOutWaiting(t *testing.T) {
	if d := cpuTimeOf(func() { time.Sleep(100 * time.Millisecond) }); d > 50*time.Millisecond {
		t.Errorf("sleeping 100 ms took %v of CPU time", d)
	}
	start := time.Now()
	d := cpuTimeOf(func() {
		for time.Since(start) < 30*time.Millisecond {
		}
	})
	if d <= 0 {
		t.Errorf("spinning 30 ms took %v of CPU time", d)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl, seed: 3, seconds: 150 * time.Millisecond, trace: trace, tiny: true}
			res, err := execute(ctx, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					wl, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v (present %v)", wl, trace, d.Name, m.Value, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.Name, m.Value)
				}
			}
		}
	}
}

// TestAllOpsFailingStillPrintsResult pins that a run whose every op
// failed (here: every engine call cancelled) still prints its JSON line
// with the failure counts, which needs every metric to be a number.
func TestAllOpsFailingStillPrintsResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, trace := range []bool{false, true} {
		cfg := config{workload: "eval-arrays", seed: 3, seconds: 50 * time.Millisecond, trace: trace, tiny: true}
		res, err := execute(ctx, cfg)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		var buf bytes.Buffer
		if err := printResult(&buf, res); err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last struct {
			Correct           bool
			Attempted, Failed int
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("trace=%v: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if last.Correct || last.Attempted == 0 || last.Failed != last.Attempted {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d, want every op failed",
				trace, last.Correct, last.Attempted, last.Failed)
		}
	}
}

// TestTomcatCountersMatchHarness pins that the bench runs the same
// program bfbench does: its deterministic counters for tomcat at seed
// 42 equal harness.Runner's report.
func TestTomcatCountersMatchHarness(t *testing.T) {
	cfg := config{workload: "eval-objects", seed: 42}
	r := newRun(cfg)
	s, err := setupEval(cfg, []string{"tomcat"}, r)
	if err != nil {
		t.Fatal(err)
	}
	s.round(context.Background(), 0, nil, nil)
	if r.failed != 0 {
		t.Fatalf("bench round failed: %v", r.failures)
	}
	w, _ := workloads.ByName("tomcat", workloads.DefaultScale())
	runner := &harness.Runner{Opts: harness.Options{Scale: workloads.DefaultScale(), Seed: 42, Trials: 1, Parallel: 1}}
	pr, err := runner.RunProgram(w)
	if err != nil {
		t.Fatal(err)
	}
	base := s.ref["tomcat/base"]
	if base.Steps != pr.BaseSteps {
		t.Errorf("base steps %d, harness %d", base.Steps, pr.BaseSteps)
	}
	for _, v := range variants {
		c, d := s.ref["tomcat/"+v], pr.Detectors[v]
		got := [6]uint64{c.CheckItems, c.ShadowOps, c.FootprintOps, c.SyncOps, c.PeakWords, uint64(c.Races)}
		want := [6]uint64{d.Checks, d.ShadowOps, d.FootprintOps, d.SyncOps, d.PeakWords, uint64(d.Races)}
		if got != want {
			t.Errorf("%s: bench checks/shadow/fp/sync/peak/races %v, harness %v", v, got, want)
		}
	}
	ft, bf := s.ref["tomcat/FT"], s.ref["tomcat/BF"]
	if ft.FieldChecks != pr.FTFieldChecks || ft.ArrayChecks != pr.FTArrayChecks ||
		bf.FieldChecks != pr.BFFieldChecks || bf.ArrayChecks != pr.BFArrayChecks {
		t.Errorf("check split FT %d+%d BF %d+%d, harness FT %d+%d BF %d+%d",
			ft.FieldChecks, ft.ArrayChecks, bf.FieldChecks, bf.ArrayChecks,
			pr.FTFieldChecks, pr.FTArrayChecks, pr.BFFieldChecks, pr.BFArrayChecks)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, x := range a {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		b      []float64
		higher bool
		want   string
	}{
		{shift(1.02), false, "within"},
		{shift(1.20), false, "worse"},
		{shift(0.80), false, "better"},
		{shift(1.20), true, "better"},
		{[]float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}, false, "unresolved"},
		{[]float64{200, 300, 250, 280, 210, 290, 220, 260, 240, 230}, false, "worse"},
	} {
		if _, got := verdict(a, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("verdict(%v, higher=%v) = %s, want %s", c.b, c.higher, got, c.want)
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	var spec struct {
		benchmarkSpec
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := readJSONFile("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, bench runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, bench %s", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the bench", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, bench %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the bench", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, bench %+v", i, m, d)
		}
	}
}
