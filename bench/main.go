// Command bench is the BigFoot reproduction's benchmark: one process per
// workload, timing calls into the repository's public layer functions
// from outside, checking every output, and printing each metric as
// "workload metric value unit" followed by one JSON result line.
//
//	bash bench/run.sh --workload eval-arrays --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out bench/results/x.json
//	bash bench/run.sh --compare A.json B.json
//
// With --trace 1 the run records spans around the same calls and
// reports the per-layer metrics instead of the end-to-end ones.  See
// README.md for the workloads and what each metric should move.
package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"bigfoot/internal/engine"
)

// metricDef names one reported metric.  BENCHMARK.json lists the same
// names and units; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user sees, reported by every workload with
// tracing off.  Timings are CPU times scaled to the reference host
// (speed.go); peak_rss_mb is the median over passes of each pass's
// highest resident set size (see betweenOps).  An "op" is the
// workload's unit of work: one engine run of one (program, variant) on
// eval-*, one cold build on build-cold, one HTTP request on
// service-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// variants are the five detector variants in the paper's order.
var variants = engine.VariantNames

// placements are the three check placements the variants compile from.
var placements = []string{"every", "redcard", "bigfoot"}

// placementOf maps a variant to the placement it runs: FT and SS check
// every access, RC and SC use RedCard, BF uses StaticBF.
func placementOf(v string) string {
	switch v {
	case "FT", "SS":
		return "every"
	case "RC", "SC":
		return "redcard"
	}
	return "bigfoot"
}

// perLayer are the metrics of a traced run, named by module.  Every
// workload reports all of them; a layer the workload never calls reads
// 0.
var perLayer = func() []metricDef {
	ds := []metricDef{
		{"bfj.parse_ms", "ms", "lower"},
		{"engine.instrument_ms", "ms", "lower"},
		{"analysis.bf_ms", "ms", "lower"},
		{"analysis.ms_per_body", "ms", "lower"},
		{"analysis.bodies", "count", "lower"},
		{"analysis.check_items", "count", "lower"},
		{"interp.compile_ms", "ms", "lower"},
		{"interp.base_run_ms", "ms", "lower"},
		{"interp.steps_per_s", "1/s", "higher"},
	}
	for _, p := range placements {
		ds = append(ds, metricDef{"interp.checked_run_ms." + p, "ms", "lower"})
	}
	for _, p := range placements {
		ds = append(ds, metricDef{"interp.check_dispatch_ms." + p, "ms", "lower"})
	}
	for _, v := range variants {
		ds = append(ds,
			metricDef{"detector.ms." + v, "ms", "lower"},
			metricDef{"detector.ns_per_op." + v, "ns", "lower"},
			metricDef{"detector.shadow_ops." + v, "count", "lower"},
			metricDef{"detector.fastpath_hit_ratio." + v, "ratio", "higher"},
			metricDef{"detector.peak_words." + v, "words", "lower"},
		)
	}
	for _, v := range []string{"SS", "SC", "BF"} {
		ds = append(ds, metricDef{"detector.footprint_ops." + v, "count", "lower"})
	}
	ds = append(ds,
		metricDef{"detector.sync_ops", "count", "lower"},
		metricDef{"engine.cache_hit_ratio", "ratio", "higher"},
		metricDef{"service.server_ms_mean", "ms", "lower"},
		metricDef{"service.queue_wait_ms_mean", "ms", "lower"},
		metricDef{"service.run_ms_mean", "ms", "lower"},
		metricDef{"service.build_ms_mean_miss", "ms", "lower"},
		metricDef{"service.overhead_ms", "ms", "lower"},
		metricDef{"service.transport_ms", "ms", "lower"},
		metricDef{"run_s.base", "s", "lower"},
	)
	for _, v := range variants {
		ds = append(ds, metricDef{"run_s." + v, "s", "lower"})
	}
	return append(ds, metricDef{"trace_overhead_frac", "ratio", "lower"})
}()

// The eval and build-cold workloads repeat their set-up at least
// minSetUps times and until setUpBudget has passed; setup_s is the
// median of the scaled set-up times.  (service-mixed sets up once per
// pass.)  Each set-up, and the measured phase after the last, starts
// with runtime.GC, so garbage an earlier set-up left behind (the
// bench's doing, not the system's) neither slows the next one nor
// raises the peak RSS.
const (
	minSetUps   = 3
	setUpBudget = time.Second
)

// repeatSetUp runs set-up f, each time after a garbage collection and a
// probe sample, as often as minSetUps and setUpBudget ask (once for a
// tiny run), and returns each set-up's timing.  The state f leaves is
// the last set-up's.
func (r *run) repeatSetUp(tiny bool, f func(i int) error) ([]timing, error) {
	var ts []timing
	begin := time.Now()
	for i := 0; i == 0 || !tiny && (i < minSetUps || time.Since(begin) < setUpBudget); i++ {
		runtime.GC()
		r.probe.sample()
		at, start := time.Now(), cpuTime()
		if err := f(i); err != nil {
			return nil, err
		}
		ts = append(ts, timing{at, cpuTime() - start})
	}
	runtime.GC()
	return ts, nil
}

// config is one workload run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// tiny shrinks every workload to a smoke-test size (tests only).
	tiny bool
}

// run accumulates one workload run: ops attempted and failed, and the
// metrics the workload computed.
type run struct {
	attempted, failed int
	failures          []string // first few failure messages
	notes             []string
	metrics           map[string]float64
	opSamples         int               // samples behind op_ms_p50 and op_ms_p90
	digest            map[string]string // build-cold placement digest
	spans             *tracer
	probe             *probe    // host speed, sampled between ops
	peaks             []float64 // per pass of the measured phase, its highest RSS sample, MB
	rssErr            error     // the first failure to read the RSS
}

func newRun(cfg config) *run {
	r := &run{metrics: map[string]float64{}, probe: newProbe()}
	if cfg.trace {
		r.spans = newTracer()
	}
	return r
}

// op counts one attempted operation and reports whether it passed; a
// non-nil err fails it.
func (r *run) op(err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
	return false
}

// startPass begins a pass of the measured phase.
func (r *run) startPass() { r.peaks = append(r.peaks, 0) }

// betweenOps samples the host's speed and, within a pass, the process's
// resident set size.  Workloads call it between ops, so neither sample
// adds to an op's time.  Memory the garbage collector frees stays
// resident until the runtime returns it to the system, seconds later, so
// a sample between ops sees what the op before it held.  peak_rss_mb is
// the median over passes of each pass's highest sample.  The process's
// own high-water mark (VmHWM) spread 0.16 over ten runs of build-cold,
// whose heap is a few MB: it caught the one garbage-collection cycle in
// some runs whose heap overshot its goal, and no cycle in others.
func (r *run) betweenOps() {
	r.probe.sample()
	if len(r.peaks) == 0 {
		return // set-up or a warm-up
	}
	mb, err := residentMB()
	if err != nil {
		r.rssErr = cmp.Or(r.rssErr, err)
		return
	}
	last := &r.peaks[len(r.peaks)-1]
	*last = max(*last, mb)
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// opMetrics records an end-to-end run's op metrics from each op's
// median latency (opTimes.medians): the percentiles, as Harrell–Davis
// estimates, and ops_per_s, the ops over the sum of their latencies,
// that is, the throughput of one caller.  When the ops are a sample (of
// generated programs or of the request mix) rather than a fixed set, it
// notes a tail with fewer than minBeyond ops beyond it.
func (r *run) opMetrics(samples []float64, sampled bool) {
	r.metrics["op_ms_p50"] = hdQuantile(samples, 0.5)
	r.metrics["op_ms_p90"] = hdQuantile(samples, 0.9)
	r.metrics["ops_per_s"] = ratio(float64(len(samples)), sum(samples)/1000)
	r.opSamples = len(samples)
	if b := beyond(len(samples), 0.90); sampled && b < minBeyond {
		r.note("op_ms_p90 has only %d of %d samples beyond it", b, len(samples))
	}
}

// metricValue is one metric as printed and stored.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run as stored in a results file.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	ProbeMS   float64                `json:"probe_ms"` // the run's median probe time, unscaled
	OpSamples int                    `json:"op_samples,omitempty"`
	Digest    map[string]string      `json:"placement_digest,omitempty"`
	Failures  []string               `json:"failures,omitempty"`
	Notes     []string               `json:"notes,omitempty"`

	spans *tracer // the traced run's spans, written out by main
}

// resultsFile is the on-disk trajectory format: every run appended by
// --out, in order.
type resultsFile struct {
	Version int      `json:"version"`
	Runs    []result `json:"runs"`
}

// resultsVersion 3: timings are CPU times scaled to the reference host,
// and peak_rss_mb is a median over passes.
const resultsVersion = 3

var workloadFuncs = map[string]func(context.Context, config) (*run, error){
	"eval-arrays":   runEvalArrays,
	"eval-objects":  runEvalObjects,
	"build-cold":    runBuildCold,
	"service-mixed": runServiceMixed,
}

// workloadNames is the order of --workload all.
var workloadNames = []string{"eval-arrays", "eval-objects", "build-cold", "service-mixed"}

// execute runs one workload and assembles its result.
func execute(ctx context.Context, cfg config) (*result, error) {
	f, ok := workloadFuncs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r, err := f(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if !cfg.trace {
		if r.rssErr != nil {
			return nil, r.rssErr
		}
		r.metrics["peak_rss_mb"] = median(r.peaks)
	}
	return r.result(cfg), nil
}

// result assembles the run's record: the end-to-end metrics, which the
// workload scaled to the reference host itself, or with tracing the
// per-layer ones, scaled here by the run's median probe time (see
// speed.go).  A metric the run did not set reads 0.
func (r *run) result(cfg config) *result {
	defs, scale := endToEnd, 1.0
	if cfg.trace {
		defs, scale = perLayer, r.probe.scale()
	}
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
		Correct:   r.failed == 0,
		Attempted: r.attempted, Failed: r.failed,
		Metrics:   map[string]metricValue{},
		ProbeMS:   r.probe.median(),
		OpSamples: r.opSamples, Digest: r.digest, Failures: r.failures,
		spans: r.spans,
	}
	r.note("probe median %.4f ms over %d samples", res.ProbeMS, len(r.probe.took))
	res.Notes = r.notes
	for _, d := range defs {
		v := r.metrics[d.Name]
		switch d.Unit {
		case "ns", "ms", "s":
			v *= scale
		case "1/s":
			v /= scale
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if r.attempted == 0 {
		res.Correct = false
		res.Failures = append(res.Failures, "no op was attempted")
	}
	return res
}

// residentMB reads the process's resident set size (VmRSS).
func residentMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("rss: no VmRSS in /proc/self/status")
}

// printResult writes the "workload metric value unit" lines, then the
// one-line JSON summary, which is always the last line of stdout.
func printResult(w io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendResult adds res to the results file at path, creating it.
func appendResult(path string, res *result) error {
	rf := resultsFile{Version: resultsVersion}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rf.Version != resultsVersion {
			return fmt.Errorf("%s: results version %d, want %d", path, rf.Version, resultsVersion)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, *res)
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runAll re-executes this binary once per workload, so no workload
// inherits another's heap, RSS high-water mark or GC state.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, wl := range workloadNames {
		cmd := exec.Command(self, append([]string{"--workload", wl}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", wl, err))
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(argv []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed for schedules, generated programs and request mixes")
	seconds := fs.Float64("seconds", 25, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", "", "append the run to this results file")
	spansDir := fs.String("spans", ".bench_build", "directory for the traced run's Chrome trace file")
	compare := fs.String("compare", "", "compare this results file with the one named by the argument")
	benchJSON := fs.String("benchmark", "BENCHMARK.json", "file holding the regression bounds used by -compare")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "bench: -compare A.json B.json")
			return 2
		}
		worse, err := compareFiles(os.Stdout, *benchJSON, *compare, fs.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *workload == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: --workload <name|all> [--seed n] [--seconds s] [--trace 0|1] [--out file]")
		return 2
	}
	if *workload == "all" {
		pass := []string{"--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds),
			"--trace", fmt.Sprint(*traceFlag), "--spans", *spansDir}
		if *out != "" {
			pass = append(pass, "--out", *out)
		}
		if err := runAll(pass); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	// One P, so the process's CPU time is the work it did, one thread at
	// a time.  With two, the garbage collector's idle workers and the
	// scheduler's spinning threads burn CPU on the second vCPU for as
	// long as the first is kept waiting, and that time depends on the
	// host's other tenants.  StaticBF analyses bodies one at a time as
	// a result (analysis.Options.Parallel defaults to GOMAXPROCS).
	runtime.GOMAXPROCS(1)
	cfg := config{
		workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
	}
	res, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, n := range res.Notes {
		fmt.Fprintf(os.Stderr, "bench: %s: note: %s\n", cfg.workload, n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", cfg.workload, f)
	}
	if res.spans != nil {
		if err := os.MkdirAll(*spansDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		path := filepath.Join(*spansDir, "spans-"+cfg.workload+".json")
		if err := res.spans.writeChrome(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
