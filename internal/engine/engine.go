// Package engine is the compile-once/run-many session core of the
// BigFoot system: it owns program preparation (parse → per-variant
// instrumentation → compilation into immutable interp.Compiled
// artifacts) and detected execution (detector + hook assembly,
// context-aware cancellation, per-run step and wall-clock budgets,
// structured outcomes).
//
// Every execution in the repository flows through (*Engine).Run — the
// public facade, the batch harness, and the bigfootd service are all
// thin clients layered on this package:
//
//	engine   — sessions: build artifacts, run them under budgets
//	harness  — batch client: trials, aggregation, tables, JSON views
//	service  — daemon: HTTP sessions over the engine + artifact cache
//
// Artifacts are immutable and goroutine-safe: one *Artifact (and each
// *Variant inside it) may back any number of concurrent Run calls.
// The optional bounded artifact cache (see Cache) exploits exactly that
// property to share compilations across requests.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfj"
	"bigfoot/internal/detector"
	"bigfoot/internal/instrument"
	"bigfoot/internal/interp"
	"bigfoot/internal/metrics"
	"bigfoot/internal/proxy"
	"bigfoot/internal/trace"
)

// VariantNames lists the five detector variants in the paper's order
// (Figure 2).  These short names are the engine's canonical variant
// identifiers; clients map their own naming (facade modes, service
// request fields) onto them.
var VariantNames = []string{"FT", "RC", "SS", "SC", "BF"}

// BaseVariant labels the uninstrumented configuration in recorded trace
// headers (it is not a detector variant name).
const BaseVariant = "base"

// IsVariantName reports whether name is one of the five canonical
// detector variant names.
func IsVariantName(name string) bool {
	for _, n := range VariantNames {
		if n == name {
			return true
		}
	}
	return false
}

// footprintsFor reports whether a variant defers array checks through
// per-thread footprints onto compressed shadow state (SlimState §4).
func footprintsFor(name string) bool {
	return name == "SS" || name == "SC" || name == "BF"
}

// Options configures an Engine.
type Options struct {
	// CacheSize bounds the artifact cache in entries; 0 disables
	// caching (every BuildSource compiles).
	CacheSize int
	// Metrics receives the engine's instruments: build/run latency
	// histograms, outcome, execution and cache counters.  nil
	// meters into detached instruments (no exposition, negligible
	// cost).  Deterministic counters are folded in only after each run
	// completes, so attaching a registry never perturbs signatures.
	Metrics *metrics.Registry
}

// Engine builds and runs detection sessions.  The zero value is not
// usable; construct with New.
type Engine struct {
	cache *Cache
	m     engineMetrics
}

// New creates an engine.  It writes to no stream: cache traffic and
// build failures reach clients through Metrics and returned errors.
func New(opts Options) *Engine {
	e := &Engine{m: newEngineMetrics(opts.Metrics)}
	if opts.CacheSize > 0 {
		e.cache = NewCache(opts.CacheSize, opts.Metrics)
	}
	return e
}

// Cache returns the engine's artifact cache, or nil when caching is
// disabled.
func (e *Engine) Cache() *Cache { return e.cache }

// PlacementStats describes the static cost of one variant's check
// placement.  For the BF variant the analysis fields are populated from
// the full static analysis; the static instrumenters (FT/SS every
// access, RC/SC RedCard) fill only ChecksPlaced.
type PlacementStats struct {
	BodiesAnalyzed int
	ChecksPlaced   int
	CheckItems     int
	AnalysisTime   time.Duration
	Work           analysis.Work
}

// placementStatsOf converts the static analyzer's stats.
func placementStatsOf(st analysis.Stats) PlacementStats {
	return PlacementStats{
		BodiesAnalyzed: st.BodiesAnalyzed,
		ChecksPlaced:   st.ChecksPlaced,
		CheckItems:     st.CheckItems,
		AnalysisTime:   st.AnalysisTime,
		Work:           st.Work,
	}
}

// Placement is a program instrumented for one detector variant but not
// yet compiled: the check-carrying AST, the proxy table (nil for
// variants without static field proxies), and the placement cost.
type Placement struct {
	Name    string
	Prog    *bfj.Program
	Proxies *proxy.Table
	Stats   PlacementStats
}

// InstrumentFor places race checks on base according to the named
// variant's placement strategy.  The base AST is not mutated.
func InstrumentFor(base *bfj.Program, name string) *Placement {
	p := &Placement{Name: name}
	switch name {
	case "FT", "SS":
		prog, st := instrument.EveryAccess(base)
		p.Prog = prog
		p.Stats.ChecksPlaced = st.ChecksInserted
	case "RC", "SC":
		prog, st := instrument.RedCard(base)
		p.Prog = prog
		p.Stats.ChecksPlaced = st.ChecksInserted
		p.Proxies = proxy.Analyze(prog)
	case "BF":
		an := analysis.New(base, analysis.DefaultOptions())
		p.Prog = an.Instrument()
		p.Stats = placementStatsOf(an.Stats)
		p.Proxies = proxy.Analyze(p.Prog)
	}
	return p
}

// Variant is one compiled detector configuration: the execution
// artifact plus everything Run needs to assemble its detector.  It is
// immutable and goroutine-safe.
type Variant struct {
	Name       string
	Compiled   *interp.Compiled
	Footprints bool
	Proxies    *proxy.Table
	Stats      PlacementStats
	prog       *bfj.Program
}

// Program returns the instrumented AST the variant was compiled from
// (for rendering; must not be mutated).
func (v *Variant) Program() *bfj.Program { return v.prog }

// Compile lowers the placement into a runnable Variant.
func (p *Placement) Compile() (*Variant, error) {
	c, err := interp.Compile(p.Prog)
	if err != nil {
		return nil, err
	}
	return &Variant{
		Name:       p.Name,
		Compiled:   c,
		Footprints: footprintsFor(p.Name),
		Proxies:    p.Proxies,
		Stats:      p.Stats,
		prog:       p.Prog,
	}, nil
}

// BuildTimings records the wall-clock cost of the three preparation
// stages.  Instrument covers every requested placement including proxy
// analysis; Compile covers every variant plus the base artifact.
type BuildTimings struct {
	Parse      time.Duration
	Instrument time.Duration
	Compile    time.Duration
}

// BuildSpec selects what an Artifact contains.
type BuildSpec struct {
	// Variants is the requested detector set (canonical names, any
	// order); nil or empty requests all five.
	Variants []string
	// WithBase additionally compiles the uninstrumented program (for
	// overhead baselines).
	WithBase bool
}

// NormalizeVariants validates and normalizes a requested variant set
// into the paper's canonical order, deduplicating.  nil or empty
// requests all five.
func NormalizeVariants(req []string) ([]string, error) {
	if len(req) == 0 {
		return VariantNames, nil
	}
	want := map[string]bool{}
	for _, n := range req {
		if !IsVariantName(n) {
			return nil, &UsageError{Msg: "unknown detector variant " + n}
		}
		want[n] = true
	}
	out := make([]string, 0, len(want))
	for _, n := range VariantNames {
		if want[n] {
			out = append(out, n)
		}
	}
	return out, nil
}

// UsageError marks a request the engine rejected before doing any work
// (unknown variant, unparsable spec).  Clients map it to their usage
// exit code / HTTP 400.
type UsageError struct{ Msg string }

func (e *UsageError) Error() string { return e.Msg }

// Artifact is the compile-once product of one program: the requested
// variants (paper order) and optionally the uninstrumented base.  It is
// immutable and goroutine-safe; one artifact backs any number of
// concurrent Run calls.
type Artifact struct {
	// Hash is the content address of the source this artifact was built
	// from (empty when built from a bare AST).
	Hash string
	// Stats is the BigFoot placement's analysis cost (zero when BF was
	// not requested).
	Stats   PlacementStats
	Timings BuildTimings

	Base     *interp.Compiled
	Variants []*Variant

	byName map[string]*Variant
}

// Variant returns the named variant, or nil when the artifact was built
// without it.
func (a *Artifact) Variant(name string) *Variant { return a.byName[name] }

// BuildAST instruments and compiles base for the requested variant set.
// Placements that share an instrumentation strategy share one
// instrumented AST and one compilation: FT+SS both run on the
// every-access placement, RC+SC on the RedCard placement.
func (e *Engine) BuildAST(base *bfj.Program, spec BuildSpec) (*Artifact, error) {
	names, err := NormalizeVariants(spec.Variants)
	if err != nil {
		return nil, err
	}
	art := &Artifact{byName: map[string]*Variant{}}

	instStart := time.Now()
	placements := make(map[string]*Placement, len(names))
	var every, red *Placement
	for _, n := range names {
		switch n {
		case "FT", "SS":
			if every == nil {
				every = InstrumentFor(base, n)
			}
			placements[n] = every
		case "RC", "SC":
			if red == nil {
				red = InstrumentFor(base, n)
			}
			placements[n] = red
		case "BF":
			placements[n] = InstrumentFor(base, "BF")
			art.Stats = placements[n].Stats
			e.observeAnalysis(art.Stats.Work)
		}
	}
	art.Timings.Instrument = time.Since(instStart)

	compStart := time.Now()
	defer func() { art.Timings.Compile = time.Since(compStart) }()
	type built struct {
		c *interp.Compiled
		d time.Duration
	}
	compiled := map[*Placement]built{}
	for _, n := range names {
		p := placements[n]
		b, ok := compiled[p]
		if !ok {
			one := time.Now()
			c, cerr := interp.Compile(p.Prog)
			if cerr != nil {
				return nil, &BuildError{Variant: n, Err: cerr}
			}
			b = built{c: c, d: time.Since(one)}
			compiled[p] = b
		}
		e.m.buildSeconds.With(n).ObserveDuration(b.d)
		v := &Variant{
			Name:       n,
			Compiled:   b.c,
			Footprints: footprintsFor(n),
			Proxies:    p.Proxies,
			Stats:      p.Stats,
			prog:       p.Prog,
		}
		art.Variants = append(art.Variants, v)
		art.byName[n] = v
	}
	if spec.WithBase {
		one := time.Now()
		c, err := interp.Compile(base)
		if err != nil {
			return nil, &BuildError{Variant: "base", Err: err}
		}
		e.m.buildSeconds.With(BaseVariant).ObserveDuration(time.Since(one))
		art.Base = c
	}
	return art, nil
}

// BuildError reports a failed program preparation: parse or compile, of
// one variant or the base.  Clients map it to their workload-failure
// exit code / HTTP 422 — the program, not the service, is at fault.
type BuildError struct {
	Variant string // "parse", "base", or a variant name
	Err     error
}

func (e *BuildError) Error() string { return e.Variant + ": " + e.Err.Error() }
func (e *BuildError) Unwrap() error { return e.Err }

// BuildSource parses src and builds its artifact, consulting the
// artifact cache when the engine has one.  The boolean reports a cache
// hit.  Cached artifacts are shared across callers — safe because
// artifacts are immutable — and keep the timings of their original
// build.
func (e *Engine) BuildSource(src string, spec BuildSpec) (*Artifact, bool, error) {
	names, err := NormalizeVariants(spec.Variants)
	if err != nil {
		return nil, false, err
	}
	spec.Variants = names
	build := func() (*Artifact, error) {
		parseStart := time.Now()
		base, err := bfj.Parse(src)
		parse := time.Since(parseStart)
		if err != nil {
			return nil, &BuildError{Variant: "parse", Err: err}
		}
		art, err := e.BuildAST(base, spec)
		if err != nil {
			return nil, err
		}
		art.Hash = SourceHash(src)
		art.Timings.Parse = parse
		return art, nil
	}
	if e.cache == nil {
		art, err := build()
		return art, false, err
	}
	return e.cache.GetOrBuild(CacheKey(src, names, spec.WithBase), build)
}

// RunSpec configures one detected execution.
type RunSpec struct {
	// Seed drives the deterministic thread schedule.
	Seed int64
	// MaxSteps bounds the execution's interpreted steps (0 = interpreter
	// default).  Exceeding it fails the run with interp.ErrStepLimit.
	MaxSteps uint64
	// Timeout bounds the execution's wall-clock time (0 = none); it
	// layers a deadline onto the caller's context.
	Timeout time.Duration
	// Out receives print-statement output (nil discards).
	Out io.Writer
	// Trace, when non-nil, records the execution's event stream.
	Trace *trace.Recorder
	// Record, when non-nil, persists the execution's hook stream in the
	// compressed trace format (trace.Writer) for offline replay.  The
	// engine writes header, chunks, and footer; the caller owns the
	// underlying writer (open/close the file).
	Record io.Writer
	// RecordMeta labels a recorded trace's header (ignored when Record
	// is nil).
	RecordMeta RecordMeta
	// DebugCensus cross-checks the incremental space census (slow;
	// diagnostic only).
	DebugCensus bool
	// CountChecks tallies executed field vs. array check items into the
	// outcome (the Figure 8 split).
	CountChecks bool
}

// RecordMeta is the workload identity stamped into a recorded trace's
// header alongside the variant and budgets.
type RecordMeta struct {
	// Program and Suite label the workload.
	Program string
	Suite   string
	// Bodies and Placed are the static placement stats (methods
	// analyzed, BigFoot checks inserted) the harness reports.
	Bodies int
	Placed int
}

// Outcome is the structured result of one execution: wall-clock cost,
// the interpreter's deterministic counters, the detector's dynamic cost
// and findings.  For base (uninstrumented) runs the detector fields
// stay zero.
type Outcome struct {
	Variant  string
	Duration time.Duration
	Counters interp.Counters

	ShadowOps    uint64
	FootprintOps uint64
	PeakWords    uint64
	Races        []detector.Race
	ArrayModes   map[string]int

	FieldChecks uint64
	ArrayChecks uint64

	// FastPaths counts the detector's epoch-level fast-path hits and
	// adaptive read-metadata transitions.
	FastPaths detector.FastPathStats
}

// countingHook forwards every event to the wrapped detector hook while
// tallying executed field vs. array check items (Figure 8's split).
// Hook callbacks run one at a time, so the counts need no
// synchronization.  Thread 0 is excluded to match the interpreter's
// check counters.
type countingHook struct {
	interp.Hook
	fields, arrays uint64
}

func (c *countingHook) CheckField(t int, w bool, o *interp.Object, fc *interp.FieldCheck) {
	if t != 0 {
		c.fields++
	}
	c.Hook.CheckField(t, w, o, fc)
}

func (c *countingHook) CheckRange(t int, w bool, a *interp.Array, lo, hi, step int, poss []bfj.Pos) {
	if t != 0 {
		c.arrays++
	}
	c.Hook.CheckRange(t, w, a, lo, hi, step, poss)
}

// chain is one execution's hook chain — BFTR writer → ring recorder →
// check counter → detector, each link present only when asked for —
// plus the links whose state is read back after the run.
type chain struct {
	hook     interp.Hook
	d        *detector.Detector // nil for base runs
	counting *countingHook
	tw       *trace.Writer
}

// newChain assembles the hook chain around d (nil for an
// uninstrumented run) from spec's Trace, Record and CountChecks.  A
// recorded trace's header names variant and its proxy table.  Run,
// RunBase and Replay all build their hooks here.
func newChain(d *detector.Detector, spec RunSpec, variant string, proxies *proxy.Table) (*chain, error) {
	c := &chain{hook: interp.NopHook{}, d: d}
	if d != nil {
		c.hook = d
		if spec.CountChecks {
			c.counting = &countingHook{Hook: d}
			c.hook = c.counting
		}
	}
	if spec.Trace != nil {
		// Recorder first: each check event must be recorded before the
		// detector emits the observer events it derives from that check.
		c.hook = trace.Tee(spec.Trace, c.hook)
		if d != nil {
			d.SetObserver(spec.Trace)
		}
	}
	if spec.Record != nil {
		tw, err := trace.NewWriter(spec.Record, trace.Header{
			Program:  spec.RecordMeta.Program,
			Suite:    spec.RecordMeta.Suite,
			Variant:  variant,
			ProxyRep: proxies.Pairs(),
			Seed:     spec.Seed,
			MaxSteps: spec.MaxSteps,
			Bodies:   spec.RecordMeta.Bodies,
			Placed:   spec.RecordMeta.Placed,
		})
		if err != nil {
			return nil, fmt.Errorf("trace record: %w", err)
		}
		// Writer first: the persisted stream is the pristine hook order,
		// ahead of recorder and detector side effects.
		c.tw = tw
		c.hook = trace.Tee(tw, c.hook)
	}
	return c, nil
}

// fill copies the detector's results and the check split into out.
// Run, RunBase and Replay all read their outcomes back here.
func (c *chain) fill(out *Outcome) {
	if d := c.d; d != nil {
		out.ShadowOps = d.Stats.ShadowOps
		out.FootprintOps = d.Stats.FootprintOps
		out.PeakWords = d.Stats.PeakWords
		out.Races = d.Races()
		out.ArrayModes = d.ArrayModes()
		out.FastPaths = d.Stats.Fast
	}
	if c.counting != nil {
		out.FieldChecks, out.ArrayChecks = c.counting.fields, c.counting.arrays
	}
}

// Run executes one variant under its detector.  Run and RunBase are
// the system's execution path: detector construction here, then hook
// assembly (check counting, trace recording), budget enforcement and
// outcome extraction in run.  The returned Outcome is populated (with
// whatever completed) even when err is non-nil, so batch clients can
// attribute partial work.
func (e *Engine) Run(ctx context.Context, v *Variant, spec RunSpec) (*Outcome, error) {
	d := detector.New(detector.Config{
		Footprints:  v.Footprints,
		Proxies:     v.Proxies,
		DebugCensus: spec.DebugCensus,
	})
	return e.run(ctx, v.Name, v.Compiled, d, v.Proxies, spec)
}

// RunBase executes the uninstrumented base artifact (no detector) under
// the same budget enforcement as Run.  Recorded base traces carry
// variant "base"; replaying one reproduces the base counters without
// re-interpreting.
func (e *Engine) RunBase(ctx context.Context, base *interp.Compiled, spec RunSpec) (*Outcome, error) {
	return e.run(ctx, BaseVariant, base, nil, nil, spec)
}

// run executes c through the hook chain around d and meters the
// outcome under variant.
func (e *Engine) run(ctx context.Context, variant string, c *interp.Compiled, d *detector.Detector, proxies *proxy.Table, spec RunSpec) (*Outcome, error) {
	hooks, err := newChain(d, spec, variant, proxies)
	if err != nil {
		return &Outcome{Variant: variant}, err
	}
	out, err := e.exec(ctx, c, hooks.hook, spec)
	out.Variant = variant
	if hooks.tw != nil {
		if werr := hooks.tw.Close(out.Counters, err); werr != nil && err == nil {
			err = fmt.Errorf("trace record: %w", werr)
		}
	}
	hooks.fill(out)
	e.observeRun(variant, out, err)
	return out, err
}

// exec runs one compiled artifact under the budgets, timing exactly the
// interpreter execution.
func (e *Engine) exec(ctx context.Context, c *interp.Compiled, hook interp.Hook, spec RunSpec) (*Outcome, error) {
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	start := time.Now()
	cnt, err := c.RunContext(ctx, hook, interp.Options{
		Seed:     spec.Seed,
		Out:      spec.Out,
		MaxSteps: spec.MaxSteps,
	})
	return &Outcome{Duration: time.Since(start), Counters: cnt}, err
}

// IsBudget reports whether err is budget exhaustion — a cancelled or
// expired deadline, or the interpreter's step limit — as opposed to a
// fault of the program (runtime error, deadlock) or of the service.
// The service layer audits the two classes under different error codes.
func IsBudget(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, interp.ErrStepLimit)
}
