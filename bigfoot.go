// Package bigfoot is a Go implementation of the BigFoot dynamic data
// race detector (Rhodes, Flanagan, Freund — PLDI 2017): precise race
// detection with statically optimized check placement, coalesced checks,
// and compressed shadow state.
//
// The package operates on BFJ programs (the paper's idealized Java-like
// language, extended with the full-language features of the authors'
// implementation).  The pipeline is staged — Parse → Instrument →
// Compile → Run — with a reusable artifact at each stage:
//
//	prog, _ := bigfoot.Parse(src)              // BFJ source text
//	inst := prog.Instrument(bigfoot.BigFoot)   // static check placement
//	c, _ := inst.Compile()                     // compile once
//	for seed := int64(0); seed < 10; seed++ {  // run many times
//		rep, _ := c.Run(bigfoot.RunConfig{Seed: seed})
//		fmt.Println(rep.Races)
//	}
//
// The Compiled artifact is immutable and goroutine-safe: runs across
// seeds (or in parallel) share one compilation.  Instrumented.Run
// remains as the one-shot convenience and caches its compilation, so
// repeated Run calls also pay the compile cost only once.
//
// Five detector configurations reproduce the paper's comparison:
// FastTrack, RedCard, SlimState, SlimCard, and BigFoot.  See DESIGN.md
// for the system inventory and EXPERIMENTS.md for the reproduced
// evaluation.
package bigfoot

import (
	"context"
	"fmt"
	"io"
	"sync"

	"bigfoot/internal/bfj"
	"bigfoot/internal/engine"
	"bigfoot/internal/metrics"
	"bigfoot/internal/trace"
)

// defaultRegistry collects the telemetry of every facade execution;
// Metrics exposes it.
var defaultRegistry = metrics.NewRegistry()

// defaultEngine backs every facade execution: the facade is a thin
// client of the internal engine (the same session core the batch
// harness and the bigfootd service run on), so there is exactly one
// execution path in the system.  The facade's artifacts are explicit
// (Instrumented, Compiled), so the engine-side artifact cache stays
// disabled here.
var defaultEngine = engine.New(engine.Options{Metrics: defaultRegistry})

// Metrics returns the process-wide registry behind every facade
// execution: per-variant build/run latency histograms and execution
// and detector work counters.  Callers can serve it over
// HTTP (Metrics().Handler()), dump it (Metrics().WriteText), or walk
// the typed Snapshot.  Recording is passive — it never perturbs
// detection results, which stay byte-identical with or without a
// consumer.
func Metrics() *metrics.Registry { return defaultRegistry }

// Pos is a source position in BFJ source text (1-based line and column).
// The zero Pos means "unknown"; see Pos.IsValid.
type Pos = bfj.Pos

// Recorder is a bounded ring-buffer execution recorder; attach one via
// RunConfig.Trace to capture the event stream of a run and export it
// with WriteChrome.  See the internal/trace package for details.
type Recorder = trace.Recorder

// NewRecorder creates a Recorder holding at most capacity events (a
// default capacity if capacity <= 0).
func NewRecorder(capacity int) *Recorder { return trace.NewRecorder(capacity) }

// Mode selects a detector configuration (Figure 2 of the paper).
type Mode int

// Detector modes.
const (
	// FastTrack checks every access against fine-grained shadow state.
	FastTrack Mode = iota
	// RedCard is FastTrack minus checks that are redundant within a
	// release-free span, with static field proxy compression.
	RedCard
	// SlimState checks every access but defers array checks through
	// per-thread footprints onto adaptively compressed shadow state.
	SlimState
	// SlimCard combines RedCard's check elimination with SlimState's
	// dynamic array compression.
	SlimCard
	// BigFoot uses the full static check placement analysis: deferred,
	// eliminated, and coalesced checks, plus field proxies and dynamic
	// array compression.
	BigFoot
)

var modeNames = map[Mode]string{
	FastTrack: "FastTrack", RedCard: "RedCard", SlimState: "SlimState",
	SlimCard: "SlimCard", BigFoot: "BigFoot",
}

// modeVariants maps facade modes onto the engine's canonical variant
// names (the paper's Figure 2 abbreviations).
var modeVariants = map[Mode]string{
	FastTrack: "FT", RedCard: "RC", SlimState: "SS",
	SlimCard: "SC", BigFoot: "BF",
}

// String names the mode.
func (m Mode) String() string { return modeNames[m] }

// Program is a parsed BFJ program.
type Program struct {
	ast *bfj.Program
}

// Parse parses BFJ source text.
func Parse(src string) (*Program, error) {
	p, err := bfj.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Program{ast: p}, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Text renders the program in BFJ surface syntax.
func (p *Program) Text() string { return bfj.FormatProgram(p.ast) }

// AnalysisStats reports the static analysis cost of instrumentation.
// The work counters are zero for modes without StaticBF; unlike
// AnalysisTime they do not vary from run to run or host to host.
type AnalysisStats struct {
	BodiesAnalyzed int
	ChecksPlaced   int
	CheckItems     int
	AnalysisTime   float64 // seconds

	// Blocks and Iterations count block analyses and loop refinement
	// iterations by StaticBF's passes 1, 2 and 3.
	Blocks, Iterations [3]int
	// Solvers and Queries count the entailment solvers built and the
	// queries they answered.
	Solvers, Queries int
}

// Instrumented is a program with race checks placed for a mode.
type Instrumented struct {
	Mode  Mode
	Stats AnalysisStats

	placement *engine.Placement

	once     sync.Once
	compiled *Compiled
	compErr  error
}

// Instrument places race checks according to the mode's placement
// strategy.
func (p *Program) Instrument(m Mode) *Instrumented {
	pl := defaultEngine.Instrument(p.ast, modeVariants[m])
	return &Instrumented{
		Mode:      m,
		placement: pl,
		Stats: AnalysisStats{
			BodiesAnalyzed: pl.Stats.BodiesAnalyzed,
			ChecksPlaced:   pl.Stats.ChecksPlaced,
			CheckItems:     pl.Stats.CheckItems,
			AnalysisTime:   pl.Stats.AnalysisTime.Seconds(),
			Blocks:         pl.Stats.Work.Blocks,
			Iterations:     pl.Stats.Work.Iterations,
			Solvers:        pl.Stats.Work.Solvers,
			Queries:        pl.Stats.Work.Queries,
		},
	}
}

// Text renders the instrumented program (with explicit check statements)
// in BFJ surface syntax.
func (i *Instrumented) Text() string { return bfj.FormatProgram(i.placement.Prog) }

// RunConfig controls an execution.
type RunConfig struct {
	// Seed drives the deterministic thread schedule.
	Seed int64
	// Out receives print-statement output (nil discards).
	Out io.Writer
	// MaxSteps bounds execution (0 = default).
	MaxSteps uint64
	// Trace, when non-nil, records the execution's event stream —
	// accesses, checks, synchronization, and detector-side dynamics
	// (footprint commits, array refinements, shadow transitions).  A nil
	// Trace leaves the untraced fast path untouched.
	Trace *Recorder
	// Record, when non-nil, persists the execution's hook stream in the
	// compressed on-disk trace format for offline replay (ReplayTrace).
	// The caller owns the writer (open/close the file).
	Record io.Writer
	// RecordName labels the program in the recorded trace's header
	// (default "program").
	RecordName string
	// DebugCensus cross-checks the detector's exact incremental
	// space census against a full shadow walk at every synchronization
	// operation, panicking on mismatch.  Diagnostic only: the walk
	// reintroduces exactly the O(heap) cost the incremental census
	// removed.
	DebugCensus bool
}

// Race describes one reported data race, with the provenance of both
// access sites when the instrumented checks carried source positions.
type Race struct {
	// Location is a human-readable racy location, e.g. "Point#3.x/y/z"
	// or "array#2[0..64:1]".
	Location string
	// Threads are the two racing thread ids: Threads[0] made the earlier
	// access, Threads[1] the later one.
	Threads [2]int
	// PrevPos and CurPos are the source positions of the earlier and
	// later access; either may be invalid (zero) when the access carried
	// no position (e.g. hand-written check statements).
	PrevPos, CurPos Pos
	// PrevWrite and CurWrite give the access kinds of the two sites.
	PrevWrite, CurWrite bool
}

// Report is the outcome of one detected execution.
type Report struct {
	Races []Race

	// Dynamic cost counters.
	Accesses     uint64
	Checks       uint64
	CheckRatio   float64
	ShadowOps    uint64
	FootprintOps uint64
	ShadowWords  uint64
	// HeldBytes is what the detector's shadow structures hold at the
	// end of the run, computed from their lengths and capacities:
	// shadow states, read vectors, footprint entries and vector clocks.
	HeldBytes uint64
}

// Compiled is an instrumented program lowered to the interpreter's
// reusable execution artifact.  It is immutable and goroutine-safe:
// one Compiled backs any number of Run calls across seeds, including
// concurrent ones.
type Compiled struct {
	Mode  Mode
	Stats AnalysisStats

	variant *engine.Variant
}

// Compile lowers the instrumented program for execution.  The result is
// cached: every call (and every Instrumented.Run) shares one artifact.
func (i *Instrumented) Compile() (*Compiled, error) {
	i.once.Do(func() {
		vs, err := defaultEngine.Compile(i.placement, i.placement.Name)
		if err != nil {
			i.compErr = err
			return
		}
		i.compiled = &Compiled{Mode: i.Mode, Stats: i.Stats, variant: vs[0]}
	})
	return i.compiled, i.compErr
}

// Run executes the compiled program under its mode's detector.
func (c *Compiled) Run(cfg RunConfig) (*Report, error) {
	return c.RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: cancellation (or a deadline)
// stops the execution at the next scheduling point and returns the
// context's error, so callers can bound or interrupt a detected run
// without dropping to internal packages.
func (c *Compiled) RunContext(ctx context.Context, cfg RunConfig) (*Report, error) {
	out, err := defaultEngine.Run(ctx, c.variant, cfg.spec(c.Stats))
	if err != nil {
		return nil, err
	}
	return reportOf(out), nil
}

// spec translates cfg into the engine's run spec; stats label a
// recorded trace's header.
func (cfg RunConfig) spec(stats AnalysisStats) engine.RunSpec {
	spec := engine.RunSpec{
		Seed:        cfg.Seed,
		MaxSteps:    cfg.MaxSteps,
		Out:         cfg.Out,
		Trace:       cfg.Trace,
		DebugCensus: cfg.DebugCensus,
	}
	if cfg.Record != nil {
		spec.Record = cfg.Record
		name := cfg.RecordName
		if name == "" {
			name = "program"
		}
		spec.RecordMeta = engine.RecordMeta{
			Program: name,
			Bodies:  stats.BodiesAnalyzed,
			Placed:  stats.ChecksPlaced,
		}
	}
	return spec
}

// reportOf converts an engine outcome into the facade report.
func reportOf(out *engine.Outcome) *Report {
	rep := &Report{
		Accesses:     out.Counters.Accesses(),
		Checks:       out.Counters.CheckItems,
		ShadowOps:    out.ShadowOps,
		FootprintOps: out.FootprintOps,
		ShadowWords:  out.PeakWords,
		HeldBytes:    out.HeldBytes,
	}
	if rep.Accesses > 0 {
		rep.CheckRatio = float64(rep.Checks) / float64(rep.Accesses)
	}
	for _, r := range out.Races {
		rep.Races = append(rep.Races, Race{
			Location:  r.Desc,
			Threads:   [2]int{r.PrevTID, r.CurTID},
			PrevPos:   r.PrevPos,
			CurPos:    r.CurPos,
			PrevWrite: r.PrevWrite,
			CurWrite:  r.CurWrite,
		})
	}
	return rep
}

// ReplayTrace re-analyzes a recorded trace (RunConfig.Record or the
// CLI's -trace-rec) without re-interpreting the program: the persisted
// hook stream is fed through the recorded variant's detector, exactly
// reproducing the live run's deterministic results.  It returns the
// report plus the variant name from the trace header ("FT".."BF", or
// "base" for an uninstrumented recording, which yields counters only).
func ReplayTrace(r io.Reader) (*Report, string, error) {
	res, err := engine.Replay(r)
	if err != nil {
		return nil, "", err
	}
	if res.RunErr != nil {
		return nil, res.Header.Variant, res.RunErr
	}
	return reportOf(res.Outcome), res.Header.Variant, nil
}

// Run executes the instrumented program under its mode's detector,
// compiling on first use and reusing the cached artifact afterwards.
func (i *Instrumented) Run(cfg RunConfig) (*Report, error) {
	return i.RunContext(context.Background(), cfg)
}

// RunContext is Run under a context (see Compiled.RunContext).
func (i *Instrumented) RunContext(ctx context.Context, cfg RunConfig) (*Report, error) {
	c, err := i.Compile()
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx, cfg)
}

// RunBase executes the original (uninstrumented) program through the
// same engine as detected runs, returning its heap access count —
// useful for overhead baselines.  cfg.Trace and cfg.Record capture the
// run's events; a recorded base trace replays through ReplayTrace as
// variant "base".
func (p *Program) RunBase(cfg RunConfig) (accesses uint64, err error) {
	vs, err := defaultEngine.Compile(&engine.Placement{Name: engine.BaseVariant, Prog: p.ast}, engine.BaseVariant)
	if err != nil {
		return 0, err
	}
	out, err := defaultEngine.RunBase(context.Background(), vs[0].Compiled, cfg.spec(AnalysisStats{}))
	if err != nil {
		return 0, err
	}
	return out.Counters.Accesses(), nil
}

// CheckRaces is the one-call convenience API: instrument with BigFoot
// placement, run on the given schedule seed, and return the races.
func CheckRaces(src string, seed int64) ([]Race, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	rep, err := p.Instrument(BigFoot).Run(RunConfig{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	return rep.Races, nil
}
