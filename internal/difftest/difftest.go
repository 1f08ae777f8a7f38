// Package difftest is the generative differential-testing harness for
// the five race detectors.  It runs a program under every detector
// (FT/RC/SS/SC/BF) alongside the address-precise oracle on a sweep of
// scheduler seeds and verifies, per execution:
//
//   - trace precision: a detector reports a race exactly when the
//     oracle observes one on that schedule (§3, §6.1 of the paper);
//   - address precision: every reported array range contains a racy
//     element per the oracle, and (when field proxies are off) every
//     reported field location is racy per the oracle;
//   - cross-detector invariants: BigFoot executes no more check items
//     than FastTrack, all variants observe the same number of heap
//     accesses and synchronization operations (schedule-insensitive
//     programs only), footprint counters are zero for non-footprint
//     detectors, and peak shadow memory dominates the final census;
//   - fast-path neutrality (Options.CompareFastPaths): each run repeated
//     with the epoch-level fast paths off passes the counter checks
//     and reports the same races and deterministic counters.
//
// The harness also checks metamorphic properties of generated programs
// (see CheckMetamorphic) and shrinks failing programs to minimal
// repros (see Shrink).
package difftest

import (
	"fmt"

	"bigfoot/internal/bfgen"
	"bigfoot/internal/bfj"
	"bigfoot/internal/detector"
	"bigfoot/internal/engine"
	"bigfoot/internal/interp"
	"bigfoot/internal/trace"
)

// Disagreement describes one differential-testing failure: which
// detector, on which schedule, violated which property.
type Disagreement struct {
	Detector string
	Seed     int64
	Kind     string // "trace", "address", "check-count", "counter", "fastpath", "metamorphic-locked", "metamorphic-serialized"
	Detail   string
}

// String renders the disagreement for logs.
func (d *Disagreement) String() string {
	return fmt.Sprintf("%s seed %d [%s]: %s", d.Detector, d.Seed, d.Kind, d.Detail)
}

// Options configures a differential check.
type Options struct {
	// Seeds are the scheduler seeds to sweep.  Empty means {0, 1, 2}.
	Seeds []int64
	// CheckCounts enables the cross-detector executed-count invariants
	// (equal access/sync counts; BF check items ≤ FT check items).  Only
	// sound for schedule-insensitive programs: each variant runs its own
	// schedule, so volatile-guarded accesses may execute in one variant
	// and not another.
	CheckCounts bool
	// MaxSteps bounds each execution (0 = interpreter default).
	MaxSteps uint64
	// CompareFastPaths additionally re-runs each (variant, seed) pair
	// with the epoch-level fast paths off
	// (detector.Config.DisableFastPaths), checks that run's counters
	// too, and asserts the two runs are observationally identical: same
	// sorted race set and same deterministic cost counters
	// (shadow/footprint/sync ops, refinements).  Space columns are
	// exempt — adaptive demotion is allowed to shrink them.  A
	// divergence is reported as a Disagreement of Kind "fastpath".
	CompareFastPaths bool
	// Fault, when non-nil, mutates each variant's detector configuration
	// before the run — the fault-injection hook used to prove broken
	// detectors are caught (e.g. set TestDropFieldChecks on FT).
	Fault func(name string, cfg *detector.Config)
}

func (o Options) seeds() []int64 {
	if len(o.Seeds) == 0 {
		return []int64{0, 1, 2}
	}
	return o.Seeds
}

// CheckSource parses src and differentially tests it.  It returns the
// first disagreement found (nil if all detectors agree with the oracle
// on every seed), or an error for programs that fail to parse,
// instrument, or execute — generator output must never do either, so
// callers treat an error as a harness bug, not a detector bug.
func CheckSource(src string, opts Options) (*Disagreement, error) {
	base, err := bfj.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return CheckProgram(base, opts)
}

// CheckProgram differentially tests an already-parsed program.  It
// builds the five variants exactly as engine.Run's callers do
// (engine.BuildAST), so the harness checks the configurations the
// system runs.
func CheckProgram(base *bfj.Program, opts Options) (*Disagreement, error) {
	art, err := engine.New(engine.Options{}).BuildAST(base, engine.BuildSpec{})
	if err != nil {
		return nil, err
	}
	vs := art.Variants
	for _, seed := range opts.seeds() {
		var ftChecks, bfChecks uint64
		var accesses, syncs []uint64
		for _, v := range vs {
			// Every differential run cross-checks the incremental space
			// census against a full shadow walk (panics loudly on any
			// mismatch), so the sweep and the regress corpus double as the
			// census-accounting validation suite.
			cfg := detector.Config{Name: v.Name, Footprints: v.Footprints, Proxies: v.Proxies, DebugCensus: true}
			if opts.Fault != nil {
				opts.Fault(v.Name, &cfg)
			}
			d := detector.New(cfg)
			o := detector.NewOracle()
			run := interp.Options{Seed: seed, MaxSteps: opts.MaxSteps}
			cnt, err := v.Compiled.Run(trace.Tee(d, o), run)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: run: %w", v.Name, seed, err)
			}
			if dis := comparePrecision(v.Name, seed, cfg, d, o); dis != nil {
				return dis, nil
			}
			if dis := checkCounters(v.Name, seed, cfg, d); dis != nil {
				return dis, nil
			}
			if opts.CompareFastPaths {
				slow := cfg
				slow.DisableFastPaths = true
				d2 := detector.New(slow)
				if _, err := v.Compiled.Run(d2, run); err != nil {
					return nil, fmt.Errorf("%s seed %d: fast-paths-off run: %w", v.Name, seed, err)
				}
				if dis := checkCounters(v.Name, seed, slow, d2); dis != nil {
					return dis, nil
				}
				if dis := compareFastPaths(v.Name, seed, d, d2); dis != nil {
					return dis, nil
				}
			}
			switch v.Name {
			case "FT":
				ftChecks = cnt.CheckItems
			case "BF":
				bfChecks = cnt.CheckItems
			}
			accesses = append(accesses, cnt.Accesses())
			syncs = append(syncs, d.Stats.SyncOps)
		}
		if opts.CheckCounts {
			if bfChecks > ftChecks {
				return &Disagreement{Detector: "BF", Seed: seed, Kind: "check-count",
					Detail: fmt.Sprintf("BF executed %d check items, FT only %d", bfChecks, ftChecks)}, nil
			}
			for i := 1; i < len(accesses); i++ {
				if accesses[i] != accesses[0] {
					return &Disagreement{Detector: vs[i].Name, Seed: seed, Kind: "counter",
						Detail: fmt.Sprintf("observed %d heap accesses, %s observed %d", accesses[i], vs[0].Name, accesses[0])}, nil
				}
				if syncs[i] != syncs[0] {
					return &Disagreement{Detector: vs[i].Name, Seed: seed, Kind: "counter",
						Detail: fmt.Sprintf("observed %d sync ops, %s observed %d", syncs[i], vs[0].Name, syncs[0])}, nil
				}
			}
		}
	}
	return nil, nil
}

// comparePrecision checks trace and address precision of one run.
func comparePrecision(name string, seed int64, cfg detector.Config, d *detector.Detector, o *detector.Oracle) *Disagreement {
	oHas, dHas := o.HasRaces(), d.RaceCount() > 0
	if oHas != dHas {
		return &Disagreement{Detector: name, Seed: seed, Kind: "trace",
			Detail: fmt.Sprintf("oracle races=%v (%v), detector races=%v (%v)",
				oHas, o.RacyDescs(), dHas, d.SortedRaceDescs())}
	}
	for _, r := range d.Races() {
		if r.ArrayID >= 0 {
			step := r.Step
			if step < 1 {
				step = 1
			}
			hit := false
			for i := r.Lo; i < r.Hi; i += step {
				if o.IndexRacy(r.ArrayID, i) {
					hit = true
					break
				}
			}
			if !hit {
				return &Disagreement{Detector: name, Seed: seed, Kind: "address",
					Detail: fmt.Sprintf("reported array race %s has no racy element per oracle", r.Desc)}
			}
		} else if cfg.Proxies == nil {
			if !o.FieldRacy(r.ObjID, r.ClassTag, r.Field) {
				return &Disagreement{Detector: name, Seed: seed, Kind: "address",
					Detail: fmt.Sprintf("reported field race %s not racy per oracle", r.Desc)}
			}
		}
	}
	return nil
}

// compareFastPaths asserts the fast-path neutrality contract: the run
// with fast paths enabled and the run with them disabled (same program,
// same schedule) must report the same race set and the same
// deterministic cost counters.  Space columns (ShadowWords/PeakWords)
// are deliberately not compared — adaptive demotion may shrink them,
// which the one-sided report diff also permits.
func compareFastPaths(name string, seed int64, a, b *detector.Detector) *Disagreement {
	fail := func(detail string) *Disagreement {
		return &Disagreement{Detector: name, Seed: seed, Kind: "fastpath", Detail: detail}
	}
	da, db := a.SortedRaceDescs(), b.SortedRaceDescs()
	if len(da) != len(db) {
		return fail(fmt.Sprintf("race count diverges with fast paths toggled: %v vs %v", da, db))
	}
	for i := range da {
		if da[i] != db[i] {
			return fail(fmt.Sprintf("race set diverges with fast paths toggled: %v vs %v", da, db))
		}
	}
	sa, sb := a.Stats, b.Stats
	switch {
	case sa.ShadowOps != sb.ShadowOps:
		return fail(fmt.Sprintf("shadow ops diverge with fast paths toggled: %d vs %d", sa.ShadowOps, sb.ShadowOps))
	case sa.FootprintOps != sb.FootprintOps:
		return fail(fmt.Sprintf("footprint ops diverge with fast paths toggled: %d vs %d", sa.FootprintOps, sb.FootprintOps))
	case sa.SyncOps != sb.SyncOps:
		return fail(fmt.Sprintf("sync ops diverge with fast paths toggled: %d vs %d", sa.SyncOps, sb.SyncOps))
	case sa.Refinements != sb.Refinements:
		return fail(fmt.Sprintf("refinements diverge with fast paths toggled: %d vs %d", sa.Refinements, sb.Refinements))
	}
	return nil
}

// checkCounters verifies a detector's stats are internally consistent.
func checkCounters(name string, seed int64, cfg detector.Config, d *detector.Detector) *Disagreement {
	if !cfg.Footprints && d.Stats.FootprintOps != 0 {
		return &Disagreement{Detector: name, Seed: seed, Kind: "counter",
			Detail: fmt.Sprintf("non-footprint detector recorded %d footprint ops", d.Stats.FootprintOps)}
	}
	if d.Stats.PeakWords < d.Stats.ShadowWords {
		return &Disagreement{Detector: name, Seed: seed, Kind: "counter",
			Detail: fmt.Sprintf("peak shadow words %d below final census %d", d.Stats.PeakWords, d.Stats.ShadowWords)}
	}
	return nil
}

// CheckGenerated differentially tests a generated program, enabling the
// executed-count invariants exactly when the generator marked the
// program schedule-insensitive.
func CheckGenerated(g *bfgen.Program, opts Options) (*Disagreement, error) {
	opts.CheckCounts = !g.ScheduleSensitive
	return CheckSource(g.Source, opts)
}

// CheckMetamorphic verifies the metamorphic oracles of a generated
// program: the fully-locked variant and the single-thread serialization
// must both be race-free on every swept schedule, whatever the base
// program does.
func CheckMetamorphic(g *bfgen.Program, opts Options) (*Disagreement, error) {
	for kind, src := range map[string]string{
		"metamorphic-locked":     g.Locked(),
		"metamorphic-serialized": g.Serialized(),
	} {
		prog, err := bfj.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("%s: parse: %w", kind, err)
		}
		c, err := interp.Compile(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", kind, err)
		}
		for _, seed := range opts.seeds() {
			o := detector.NewOracle()
			if _, err := c.Run(o, interp.Options{Seed: seed, MaxSteps: opts.MaxSteps}); err != nil {
				return nil, fmt.Errorf("%s seed %d: run: %w", kind, seed, err)
			}
			if o.HasRaces() {
				return &Disagreement{Detector: "oracle", Seed: seed, Kind: kind,
					Detail: fmt.Sprintf("transformed program must be race-free, oracle saw %v", o.RacyDescs())}, nil
			}
		}
	}
	return nil, nil
}
