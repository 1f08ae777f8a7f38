// Package harness runs the paper's evaluation: every workload under
// every detector configuration, measuring static-analysis cost, check
// ratios, run-time overhead, and shadow memory, and rendering the
// results in the shape of the paper's Figure 2, Figure 8, Table 1, and
// Table 2.
//
// Methodology (mirroring §6): each program is instrumented once per
// placement mode and compiled once into a reusable execution artifact,
// then executed on the same deterministic schedule for the base
// (uninstrumented) configuration and each detector.  Overhead is
// (detector time − base time) / base time over the minimum of repeated
// trials; check ratio is executed check items / worker heap accesses;
// memory overhead is peak shadow words / base data words.
//
// Execution runs in two stages: a preparation stage parses,
// instruments, and compiles each workload, then a job queue fans the
// independent (program, variant, trial) executions out over a bounded
// worker pool.  Every counter the harness reports is
// deterministic (seeded schedules, trial-invariant), so the aggregated
// results are identical at every worker count; only wall-clock timings
// vary.
//
// The harness is a batch client of internal/engine: program
// preparation and every detected execution go through the engine's
// compile-once session core, and this package adds what batch
// evaluation needs on top — trials, minimum-of-trials timing, the
// cost-model overheads, aggregation into ProgramResult/Report, and the
// table/JSON views.
package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bigfoot/internal/detector"
	"bigfoot/internal/engine"
	"bigfoot/internal/interp"
	"bigfoot/internal/workloads"
)

// Cost-model weights, in units of one interpreted statement.  Wall time
// on an interpreter substrate understates checking cost relative to a
// JVM (an interpreted statement costs ~100x a compiled heap access,
// while a shadow check costs about the same on both), so the primary
// overhead metric is a deterministic cost model over the exact
// operation counts each detector performs.  The weights are calibrated
// once against FastTrack's published 7.3x (a check call plus an
// epoch-based shadow operation per access, plus vector-clock work per
// synchronization operation) and then held fixed for all detectors;
// every other detector's number is a prediction from its own op counts.
const (
	// CostCheckCall is the instrumentation call overhead per executed
	// check item.
	CostCheckCall = 3
	// CostShadowOp is one check-and-update on a shadow location
	// (FastTrack epoch compare + store).
	CostShadowOp = 15
	// CostFootprintOp is one footprint append (SlimState/BigFoot
	// deferred-check bookkeeping): an array-indexed range extension,
	// cheaper than a full epoch check-and-update.
	CostFootprintOp = 4
	// CostSyncOp is the vector-clock bookkeeping per synchronization
	// operation.
	CostSyncOp = 40
)

// RaceReport is one provenance-enriched race in the versioned report
// (schema v2): both access sites with thread, access kind, and source
// position ("line:col", empty when the constituent access carried no
// position).  Race sets are deterministic for a given RunInfo; the
// Signature carries their count, not the reports themselves.
type RaceReport struct {
	Desc      string `json:"desc"`
	PrevTID   int    `json:"prev_tid"`
	CurTID    int    `json:"cur_tid"`
	PrevPos   string `json:"prev_pos,omitempty"`
	CurPos    string `json:"cur_pos,omitempty"`
	PrevWrite bool   `json:"prev_write"`
	CurWrite  bool   `json:"cur_write"`
}

// DetectorResult holds one detector's measurements on one program.
// The JSON field names are part of the versioned report schema (see
// ReportVersion); renames are schema changes.
type DetectorResult struct {
	Name         string         `json:"name"`
	Time         time.Duration  `json:"time_ns"`
	Overhead     float64        `json:"overhead"`      // modeled overhead (primary, deterministic)
	WallOverhead float64        `json:"wall_overhead"` // measured wall-time overhead (supplementary)
	CheckRatio   float64        `json:"check_ratio"`   // executed checks / accesses
	Checks       uint64         `json:"checks"`
	ShadowOps    uint64         `json:"shadow_ops"`
	FootprintOps uint64         `json:"footprint_ops"`
	SyncOps      uint64         `json:"sync_ops"`
	PeakWords    uint64         `json:"peak_words"`
	SpaceOverX   float64        `json:"space_over_base"` // peak shadow words / base data words
	Races        int            `json:"races"`
	ArrayModes   map[string]int `json:"array_modes,omitempty"`
	RaceReports  []RaceReport   `json:"race_reports,omitempty"` // schema v2
	// EventsPerSec is the macro detection throughput: hook events
	// consumed (accesses + check items + sync ops) divided by Time.
	// Wall-clock derived, so like Time/WallOverhead it is excluded from
	// Signature.  For replayed reports (ReplayDir) Time is the
	// replay's own detection time — offline analysis throughput.
	// Schema v3.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// hookEvents counts the hook events a detector consumed: worker heap
// accesses, executed check items, and synchronization operations.
func hookEvents(c interp.Counters) uint64 {
	return c.Accesses() + c.CheckItems + c.SyncOps
}

// eventsPerSec converts an event count over a duration into a rate (0
// when the clock read 0, which only happens on empty runs).
func eventsPerSec(events uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(events) / d.Seconds()
}

// modelOverhead computes the cost-model overhead of one detector run
// against the base execution's step count.
func modelOverhead(checks, shadowOps, fpOps, syncOps, baseSteps uint64) float64 {
	if baseSteps == 0 {
		return 0
	}
	cost := float64(checks)*CostCheckCall +
		float64(shadowOps)*CostShadowOp +
		float64(fpOps)*CostFootprintOp +
		float64(syncOps)*CostSyncOp
	return cost / float64(baseSteps)
}

// PhaseTimings records the wall-clock cost of each stage one workload
// moved through: parsing, instrumenting (all five placements
// plus proxy analysis), compiling every variant, and executing every
// (variant, trial) job.  Run sums all executions, so at -parallel N it
// can exceed the elapsed wall time.  Timings are non-deterministic and
// excluded from Signature.
type PhaseTimings struct {
	Parse      time.Duration `json:"parse_ns"`
	Instrument time.Duration `json:"instrument_ns"`
	Compile    time.Duration `json:"compile_ns"`
	Run        time.Duration `json:"run_ns"`
}

// ProgramResult holds all measurements for one workload.
type ProgramResult struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`

	// Static analysis (BigFoot placement).
	MethodsAnalyzed int           `json:"methods_analyzed"`
	StaticTime      time.Duration `json:"static_time_ns"`
	ChecksInserted  int           `json:"checks_inserted"` // static BigFoot check statements

	// Field/array check split for Figure 8, counted by a hook composed
	// onto the FT and BF detector runs.
	BFFieldChecks uint64 `json:"bf_field_checks"`
	BFArrayChecks uint64 `json:"bf_array_checks"`
	FTFieldChecks uint64 `json:"ft_field_checks"`
	FTArrayChecks uint64 `json:"ft_array_checks"`

	BaseTime  time.Duration `json:"base_time_ns"`
	BaseSteps uint64        `json:"base_steps"`
	Accesses  uint64        `json:"accesses"`
	BaseWords uint64        `json:"base_words"`

	Phases PhaseTimings `json:"phases"`

	Detectors map[string]*DetectorResult `json:"detectors"`
}

// Options configures a harness run.
type Options struct {
	Scale  workloads.Scale
	Seed   int64
	Trials int // timing trials per configuration (minimum reported)
	// Parallel bounds the worker pool executing (program, variant,
	// trial) jobs; 0 means GOMAXPROCS, 1 forces sequential execution.
	Parallel int
	// MaxSteps bounds every interpreted execution so a runaway workload
	// fails fast instead of hanging the suite (0 = interpreter default).
	MaxSteps uint64
	// Detectors selects the evaluated variant set (canonical engine
	// names, e.g. "FT", "BF"); nil or empty evaluates all five.  Views
	// that compare detectors (Figure 2, Table 1, ...) require the full
	// set; Signature and the JSON report render any subset.
	Detectors []string
	// TraceDir, when non-empty, records trial 0 of every (program,
	// configuration) execution as a compressed trace file
	// <dir>/<program>.<variant>.bftrace (variant "base" for the
	// uninstrumented run), for offline re-analysis via ReplayDir.  The
	// directory must exist.
	TraceDir string
}

// Runner executes the evaluation: a thin batch client over the engine
// that adds trials, aggregation, and report assembly.
type Runner struct {
	Opts Options
	// Progress, when non-nil, receives one line per completed program.
	// It may be invoked from worker goroutines; calls are serialized.
	Progress func(string)
	// Engine, when non-nil, is the session core used for every build and
	// run — inject a shared engine to reuse its artifact cache across
	// runners (the bigfootd service does).  nil lazily constructs a
	// private uncached engine.
	Engine *engine.Engine

	progressMu sync.Mutex
	engineOnce sync.Once
}

// engine returns the injected engine, or lazily constructs a private
// uncached one.
func (r *Runner) engine() *engine.Engine {
	r.engineOnce.Do(func() {
		if r.Engine == nil {
			r.Engine = engine.New(engine.Options{})
		}
	})
	return r.Engine
}

// runOutcome records one (variant, trial) execution.
type runOutcome struct {
	out *engine.Outcome
	err error
}

// programState is one workload moving through the two stages: the
// engine-built artifact from the preparation stage, an outcome slot per
// job, and a countdown that triggers deterministic aggregation when the
// last job completes.
type programState struct {
	w   workloads.Workload
	res *ProgramResult
	art *engine.Artifact

	// outcomes[0] is the base configuration; outcomes[1+i] is
	// art.Variants[i]; the inner index is the trial.
	outcomes [][]runOutcome
	pending  atomic.Int64
	err      error // aggregation result (joined job errors)
}

// prepare runs the compile-once stage for one workload through the
// engine: parse, instrument per requested detector, and compile each
// variant plus the uninstrumented base.  Builds go through the engine's
// artifact cache when it has one.
func (r *Runner) prepare(w workloads.Workload) (*programState, error) {
	art, _, err := r.engine().BuildSource(w.Source, engine.BuildSpec{
		Variants: r.Opts.Detectors,
		WithBase: true,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	trials := r.Opts.Trials
	if trials < 1 {
		trials = 1
	}
	st := &programState{
		w:   w,
		art: art,
		res: &ProgramResult{
			Name:            w.Name,
			Suite:           w.Suite,
			MethodsAnalyzed: art.Stats.BodiesAnalyzed,
			StaticTime:      art.Stats.AnalysisTime,
			ChecksInserted:  art.Stats.ChecksPlaced,
			Phases: PhaseTimings{
				Parse:      art.Timings.Parse,
				Instrument: art.Timings.Instrument,
				Compile:    art.Timings.Compile,
			},
			Detectors: map[string]*DetectorResult{},
		},
	}
	st.outcomes = make([][]runOutcome, 1+len(art.Variants))
	for i := range st.outcomes {
		st.outcomes[i] = make([]runOutcome, trials)
	}
	st.pending.Store(int64(len(st.outcomes) * trials))
	return st, nil
}

// runJob executes one (variant, trial) cell of a program's outcome
// matrix through the engine, reusing the stage's compiled artifact.
func (r *Runner) runJob(ctx context.Context, st *programState, v, trial int) {
	slot := &st.outcomes[v][trial]
	if err := ctx.Err(); err != nil {
		slot.err = err
		return
	}
	spec := engine.RunSpec{Seed: r.Opts.Seed, MaxSteps: r.Opts.MaxSteps}
	variantName := engine.BaseVariant
	if v > 0 {
		variantName = st.art.Variants[v-1].Name
	}
	var rec *os.File
	if r.Opts.TraceDir != "" && trial == 0 {
		path := filepath.Join(r.Opts.TraceDir, fmt.Sprintf("%s.%s.bftrace", st.w.Name, variantName))
		f, err := os.Create(path)
		if err != nil {
			slot.err = fmt.Errorf("%s/%s: trace record: %w", st.w.Name, variantName, err)
			return
		}
		rec = f
		spec.Record = f
		spec.RecordMeta = engine.RecordMeta{
			Program: st.w.Name,
			Suite:   st.w.Suite,
			Bodies:  st.res.MethodsAnalyzed,
			Placed:  st.res.ChecksInserted,
		}
	}
	var err error
	if v == 0 {
		slot.out, err = r.engine().RunBase(ctx, st.art.Base, spec)
		if err != nil {
			slot.err = fmt.Errorf("%s: base run: %w", st.w.Name, err)
		}
	} else {
		spec.CountChecks = true
		slot.out, err = r.engine().Run(ctx, st.art.Variants[v-1], spec)
		if err != nil {
			slot.err = fmt.Errorf("%s/%s: %w", st.w.Name, variantName, err)
		}
	}
	if rec != nil {
		if cerr := rec.Close(); cerr != nil && slot.err == nil {
			slot.err = fmt.Errorf("%s/%s: trace record: %w", st.w.Name, variantName, cerr)
		}
	}
}

// finalize aggregates a program's outcomes once every job has run.  All
// inputs are deterministic except wall-clock durations, so the result
// is identical regardless of worker count or completion order.
func (st *programState) finalize() {
	var errs []error
	for _, trials := range st.outcomes {
		for i := range trials {
			if trials[i].err != nil {
				errs = append(errs, trials[i].err)
			}
		}
	}
	if len(errs) > 0 {
		st.err = errors.Join(errs...)
		return
	}
	res := st.res
	for _, trials := range st.outcomes {
		for i := range trials {
			res.Phases.Run += trials[i].out.Duration
		}
	}
	res.addOutcome(engine.BaseVariant, st.outcomes[0][0].out, minDur(st.outcomes[0]))
	for i, v := range st.art.Variants {
		trials := st.outcomes[1+i]
		res.addOutcome(v.Name, trials[0].out, minDur(trials))
	}
}

// addOutcome records one configuration's outcome on res, live or
// replayed: the base run's counters (variant engine.BaseVariant), or a
// detector's DetectorResult and, for FT and BF, its Figure 8 check
// split.  dt is the configuration's reported time.  Add the base first:
// detector overheads and ratios are taken against it.
func (res *ProgramResult) addOutcome(variant string, out *engine.Outcome, dt time.Duration) {
	c := out.Counters
	if variant == engine.BaseVariant {
		res.BaseTime = dt
		res.BaseSteps = c.Steps
		res.Accesses = c.Accesses()
		res.BaseWords = c.BaseWords
		return
	}
	res.Detectors[variant] = &DetectorResult{
		Name:         variant,
		Time:         dt,
		Overhead:     modelOverhead(c.CheckItems, out.ShadowOps, out.FootprintOps, c.SyncOps, res.BaseSteps),
		WallOverhead: overhead(dt, res.BaseTime),
		CheckRatio:   ratio(c.CheckItems, res.Accesses),
		Checks:       c.CheckItems,
		ShadowOps:    out.ShadowOps,
		FootprintOps: out.FootprintOps,
		SyncOps:      c.SyncOps,
		PeakWords:    out.PeakWords,
		SpaceOverX:   ratio(out.PeakWords, res.BaseWords),
		Races:        len(out.Races),
		ArrayModes:   out.ArrayModes,
		RaceReports:  raceReports(out.Races),
		EventsPerSec: eventsPerSec(hookEvents(c), dt),
	}
	switch variant {
	case "FT":
		res.FTFieldChecks, res.FTArrayChecks = out.FieldChecks, out.ArrayChecks
	case "BF":
		res.BFFieldChecks, res.BFArrayChecks = out.FieldChecks, out.ArrayChecks
	}
}

// raceReports converts the detector's race records to the report form.
// Race discovery order is deterministic (serialized event stream), so
// the slice is byte-stable across runs and -parallel widths.
func raceReports(races []detector.Race) []RaceReport {
	if len(races) == 0 {
		return nil
	}
	out := make([]RaceReport, len(races))
	for i, rc := range races {
		rr := RaceReport{
			Desc:      rc.Desc,
			PrevTID:   rc.PrevTID,
			CurTID:    rc.CurTID,
			PrevWrite: rc.PrevWrite,
			CurWrite:  rc.CurWrite,
		}
		if rc.PrevPos.IsValid() {
			rr.PrevPos = rc.PrevPos.String()
		}
		if rc.CurPos.IsValid() {
			rr.CurPos = rc.CurPos.String()
		}
		out[i] = rr
	}
	return out
}

func minDur(trials []runOutcome) time.Duration {
	best := trials[0].out.Duration
	for _, tr := range trials[1:] {
		if tr.out.Duration < best {
			best = tr.out.Duration
		}
	}
	return best
}

// progress emits a serialized progress line.
func (r *Runner) progress(st *programState) {
	if r.Progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	if st.err != nil {
		r.Progress(fmt.Sprintf("%-11s FAILED: %v", st.w.Name, st.err))
		return
	}
	res := st.res
	if res.Detectors["FT"] == nil || res.Detectors["BF"] == nil {
		// Subset run (Options.Detectors): the standard line needs FT+BF.
		r.Progress(fmt.Sprintf("%-11s base=%-10v detectors=%d",
			st.w.Name, res.BaseTime.Round(time.Millisecond), len(res.Detectors)))
		return
	}
	r.Progress(fmt.Sprintf("%-11s base=%-10v FT=%.2fx BF=%.2fx ratioBF=%.3f",
		st.w.Name, res.BaseTime.Round(time.Millisecond),
		res.Detectors["FT"].Overhead, res.Detectors["BF"].Overhead,
		res.Detectors["BF"].CheckRatio))
}

// RunProgram evaluates one workload under every configuration.
func (r *Runner) RunProgram(w workloads.Workload) (*ProgramResult, error) {
	return r.RunProgramContext(context.Background(), w)
}

// RunProgramContext is RunProgram under a context: cancellation (or a
// deadline) stops the evaluation and surfaces the cancellation error.
func (r *Runner) RunProgramContext(ctx context.Context, w workloads.Workload) (*ProgramResult, error) {
	rs, err := r.runWorkloads(ctx, []workloads.Workload{w})
	if len(rs) == 1 {
		return rs[0], err
	}
	return nil, err
}

// RunAll evaluates every workload.
func (r *Runner) RunAll() ([]*ProgramResult, error) {
	return r.RunAllContext(context.Background())
}

// RunAllContext evaluates every workload under the context: on
// cancellation (or timeout) it stops scheduling work and returns the
// programs that completed alongside the joined error.
func (r *Runner) RunAllContext(ctx context.Context) ([]*ProgramResult, error) {
	return r.runWorkloads(ctx, workloads.All(r.Opts.Scale))
}

// runWorkloads drives the two stages over a bounded worker
// pool.  A failing workload no longer aborts the evaluation: its error
// is collected and the remaining programs still produce results.
func (r *Runner) runWorkloads(ctx context.Context, ws []workloads.Workload) ([]*ProgramResult, error) {
	par := r.Opts.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	// Stage 1: parse + instrument + compile every workload (compile
	// once; the artifacts are reused by every trial in stage 2).
	states := make([]*programState, len(ws))
	prepErrs := make([]error, len(ws))
	var idx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(par, len(ws)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= len(ws) {
					return
				}
				if err := ctx.Err(); err != nil {
					prepErrs[i] = fmt.Errorf("%s: %w", ws[i].Name, err)
					continue
				}
				states[i], prepErrs[i] = r.prepare(ws[i])
			}
		}()
	}
	wg.Wait()

	// Stage 2: the (program, variant, trial) job queue.
	type job struct {
		st       *programState
		v, trial int
	}
	var jobs []job
	for _, st := range states {
		if st == nil {
			continue
		}
		for v := range st.outcomes {
			for trial := range st.outcomes[v] {
				jobs = append(jobs, job{st, v, trial})
			}
		}
	}
	queue := make(chan job)
	for w := 0; w < min(par, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				r.runJob(ctx, j.st, j.v, j.trial)
				if j.st.pending.Add(-1) == 0 {
					// Last job of this program: aggregate and report now so
					// progress streams while other programs keep running.
					j.st.finalize()
					r.progress(j.st)
				}
			}
		}()
	}
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	wg.Wait()

	// Collect in workload order: partial results plus a joined error.
	var out []*ProgramResult
	var errs []error
	for i, st := range states {
		switch {
		case prepErrs[i] != nil:
			errs = append(errs, prepErrs[i])
		case st.err != nil:
			errs = append(errs, st.err)
		default:
			out = append(out, st.res)
		}
	}
	return out, errors.Join(errs...)
}

func overhead(t, base time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return float64(t-base) / float64(base)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// GeoMeanFloor is the explicit lower clamp applied to every GeoMean
// entry.  The geometric mean is undefined for non-positive values, and
// a single near-zero overhead (a detector that did essentially no work
// on one program) would otherwise drag the aggregate toward zero and
// hide every other program's cost.  The floor trades that for a small,
// documented upward bias: an entry below 1e-3 contributes as 1e-3, so
// aggregates of near-zero overheads read as "≤ 0.001x", never less.
// Renderers that must not inflate (Figure 8's relative overhead) divide
// raw per-program values instead of aggregating through GeoMean.
const GeoMeanFloor = 1e-3

// GeoMean computes the geometric mean of xs with every entry clamped to
// at least GeoMeanFloor (see its comment for the bias this introduces).
// An empty input returns NaN — there is no neutral element to report,
// and the previous silent 0 masked empty aggregations as "no overhead".
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	logSum := 0.0
	for _, x := range xs {
		if x < GeoMeanFloor {
			x = GeoMeanFloor
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Mean computes the arithmetic mean, or NaN for an empty input (the
// same sentinel convention as GeoMean).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
