package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"bigfoot/internal/engine"
	"bigfoot/internal/interp"
	"bigfoot/internal/workloads"
)

// arraysPrograms are the seven JavaGrande kernels: range checks,
// footprints and the array shadow modes carry the detector work.
var arraysPrograms = []string{"crypt", "series", "lufact", "moldyn", "montecarlo", "sparse", "sor"}

// objectsPrograms are the twelve DaCapo stand-ins: field checks through
// proxies, the CheckField fast paths and lock acquire/release carry the
// detector work.
var objectsPrograms = []string{"batik", "raytracer", "tomcat", "sunflow", "luindex", "pmd",
	"fop", "lusearch", "avrora", "jython", "xalan", "h2"}

func runEvalArrays(ctx context.Context, cfg config) (*run, error) {
	if cfg.tiny {
		return runEval(ctx, cfg, []string{"crypt", "series"})
	}
	return runEval(ctx, cfg, arraysPrograms)
}

func runEvalObjects(ctx context.Context, cfg config) (*run, error) {
	if cfg.tiny {
		return runEval(ctx, cfg, []string{"tomcat", "avrora"})
	}
	return runEval(ctx, cfg, objectsPrograms)
}

// counters are the deterministic outputs of one run; every round of a
// run must reproduce them exactly.
type counters struct {
	Steps, CheckItems, SyncOps uint64
	ShadowOps, FootprintOps    uint64
	FieldChecks, ArrayChecks   uint64
	PeakWords, FastPaths       uint64
	Races                      int
}

func countersOf(o *engine.Outcome) counters {
	return counters{
		Steps: o.Counters.Steps, CheckItems: o.Counters.CheckItems, SyncOps: o.Counters.SyncOps,
		ShadowOps: o.ShadowOps, FootprintOps: o.FootprintOps,
		FieldChecks: o.FieldChecks, ArrayChecks: o.ArrayChecks,
		PeakWords: o.PeakWords, FastPaths: o.FastPaths.Total(),
		Races: len(o.Races),
	}
}

// evalState is one eval run's programs and the counters of their
// warm-up round, keyed "program/variant" ("program/base" for the base
// run).
type evalState struct {
	cfg   config
	eng   *engine.Engine
	progs []*prepared
	ref   map[string]counters
	// setups are the set-up times, one per repetition.
	setups []timing
	// lat holds, per op (program × engine call, in round order), its
	// timing in every timed round; nil while rounds are untimed.
	lat opTimes
	r   *run
}

// check fails the op when the run errored, reported a race, or produced
// counters other than those of the warm-up round.
func (s *evalState) check(key string, out *engine.Outcome, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	c := countersOf(out)
	if c.Races != 0 {
		return fmt.Errorf("%s: %d races reported on a race-free program", key, c.Races)
	}
	if want, ok := s.ref[key]; !ok {
		s.ref[key] = c
	} else if c != want {
		return fmt.Errorf("%s: counters %+v differ from the warm-up round's %+v", key, c, want)
	}
	return nil
}

// round runs every program as base, then FT, RC, SS, SC and BF through
// the engine, one call at a time, and returns each call kind's summed
// CPU time.  A traced round (tr set) makes each program's engine calls
// twice: first untraced, summed into ref, then traced, a second or two
// apart, so the pair prices the tracing on the same host load.  After
// them it runs the base and each placement's compiled program under
// interp.NopHook, which the per-layer attribution subtracts.
func (s *evalState) round(ctx context.Context, n int, tr *tracer, ref map[string]time.Duration) map[string]time.Duration {
	sums := map[string]time.Duration{}
	for i, p := range s.progs {
		op := p.name + "#" + strconv.Itoa(n)
		k := i * (1 + len(variants)) // p's first op
		if tr != nil {
			s.calls(ctx, nil, op, 0, k, p, ref)
		}
		root := tr.begin("op", op, 0)
		s.calls(ctx, tr, op, root, k, p, sums)
		if tr != nil {
			s.nop(ctx, tr, op, root, p.name+"/base", "interp.run.base", p.base, sums)
			for _, v := range p.variants {
				if pl := placementOf(v.Name); v.Name == firstVariantOf(pl) {
					s.nop(ctx, tr, op, root, p.name+"/"+v.Name, "interp.run."+pl, v.Compiled, sums)
				}
			}
		}
		tr.end(root)
	}
	return sums
}

// calls runs p's base and then its five variants through the engine as
// ops k, k+1, ..., each under a span of parent and after betweenOps.
func (s *evalState) calls(ctx context.Context, tr *tracer, op string, parent, k int, p *prepared, sums map[string]time.Duration) {
	spec := engine.RunSpec{Seed: s.cfg.seed, CountChecks: true} // RunBase ignores CountChecks
	var out *engine.Outcome
	var err error
	s.r.betweenOps()
	at := time.Now()
	d := tr.timed("engine.run_base", op, parent, func() { out, err = s.eng.RunBase(ctx, p.base, spec) })
	s.shared(k, p.name+"/base", "engine.run_base", timing{at, d}, out, err, sums)
	for j, v := range p.variants {
		s.r.betweenOps()
		at := time.Now()
		d := tr.timed("engine.run."+v.Name, op, parent, func() { out, err = s.eng.Run(ctx, v, spec) })
		s.shared(k+1+j, p.name+"/"+v.Name, "engine.run."+v.Name, timing{at, d}, out, err, sums)
	}
}

// shared records end-to-end op k: a timed engine call.
func (s *evalState) shared(k int, key, kind string, t timing, out *engine.Outcome, err error, sums map[string]time.Duration) {
	if s.r.op(s.check(key, out, err)) && s.lat != nil {
		s.lat.add(k, t)
	}
	d := t.d
	sums[kind] += d
	sums["shared"] += d
}

// nop runs c with no hook and checks that it interpreted exactly the
// steps, check items and sync ops of the engine run keyed key.
func (s *evalState) nop(ctx context.Context, tr *tracer, op string, parent int, key, kind string, c *interp.Compiled, sums map[string]time.Duration) {
	var cnt interp.Counters
	var err error
	sums[kind] += tr.timed(kind, op, parent, func() {
		cnt, err = c.RunContext(ctx, interp.NopHook{}, interp.Options{Seed: s.cfg.seed})
	})
	if err == nil {
		if want := s.ref[key]; cnt.Steps != want.Steps || cnt.CheckItems != want.CheckItems || cnt.SyncOps != want.SyncOps {
			err = fmt.Errorf("%s: NopHook run counted steps=%d checks=%d sync=%d, engine run %d/%d/%d",
				key, cnt.Steps, cnt.CheckItems, cnt.SyncOps, want.Steps, want.CheckItems, want.SyncOps)
		}
	}
	if err != nil {
		err = fmt.Errorf("%s (%s): %w", key, kind, err)
	}
	s.r.op(err)
}

// firstVariantOf is the variant whose compiled program stands for a
// placement in differential runs (FT and SS share one compilation, as
// do RC and SC).
func firstVariantOf(placement string) string {
	for _, v := range variants {
		if placementOf(v) == placement {
			return v
		}
	}
	return ""
}

// repeat calls f(0), f(1), ... while at least half an average call's
// time is left of budget, so the phase lasts about budget, and always
// calls it at least once.
func repeat(budget time.Duration, f func(i int)) {
	start := time.Now()
	for n := 0; n == 0 || time.Since(start)+time.Since(start)/time.Duration(2*n) <= budget; n++ {
		f(n)
	}
}

// runEval is the eval-* workload: one closed-loop caller running every
// program under base and the five detectors, round after round, after
// one untimed warm-up round that also records the counters every later
// round must reproduce.
func runEval(ctx context.Context, cfg config, names []string) (*run, error) {
	r := newRun(cfg)
	s, err := setupEval(cfg, names, r)
	if err != nil {
		return nil, err
	}
	s.round(ctx, 0, nil, nil)
	if !cfg.trace {
		s.lat = make(opTimes, len(s.progs)*(1+len(variants)))
		repeat(cfg.seconds, func(i int) {
			r.startPass()
			s.round(ctx, 1+i, nil, nil)
		})
		r.metrics["setup_s"] = r.probe.scaledMedianS(s.setups)
		r.opMetrics(s.lat.medians(r.probe), false)
		return r, nil
	}

	// Traced rounds; their untraced reference calls price the tracing and
	// anchor the reconstruction check.
	setupSpans := len(r.spans.snapshot())
	var ref, traced []map[string]time.Duration
	repeat(cfg.seconds, func(i int) {
		untraced := map[string]time.Duration{}
		traced = append(traced, s.round(ctx, 1+i, r.spans, untraced))
		ref = append(ref, untraced)
	})
	s.layerMetrics(r.spans.snapshot()[setupSpans:])
	r.metrics["trace_overhead_frac"] = ratio(medianOf(traced, "shared"), medianOf(ref, "shared")) - 1
	for _, v := range append([]string{"base"}, variants...) {
		kind := "engine.run." + v
		if v == "base" {
			kind = "engine.run_base"
		}
		untraced := medianOf(ref, kind) / 1000
		layers := r.metrics["interp.base_run_ms"] / 1000
		if v != "base" {
			layers += (r.metrics["interp.check_dispatch_ms."+placementOf(v)] + r.metrics["detector.ms."+v]) / 1000
		}
		r.note("reconstruct run_s.%s: traced layers %.4f s, untraced %.4f s (%+.1f%%)",
			v, layers, untraced, 100*(ratio(layers, untraced)-1))
	}
	return r, nil
}

// medianOf is the median over rounds of one call kind's summed CPU
// time, ms.
func medianOf(rounds []map[string]time.Duration, kind string) float64 {
	var xs []float64
	for _, m := range rounds {
		xs = append(xs, ms(m[kind]))
	}
	return median(xs)
}

// layerMetrics attributes the traced rounds' time by layer: each call
// kind's self time summed per round, then the median over rounds.
// Detector and dispatch costs are differences of those medians.
func (s *evalState) layerMetrics(spans []span) {
	r := s.r
	self := selfTimes(spans)
	perRound := map[string]map[string]float64{} // kind → round → ms
	for i, sp := range spans {
		round := sp.Op[strings.LastIndexByte(sp.Op, '#')+1:]
		if perRound[sp.Name] == nil {
			perRound[sp.Name] = map[string]float64{}
		}
		perRound[sp.Name][round] += ms(self[i])
	}
	med := func(kind string) float64 {
		var xs []float64
		for _, v := range perRound[kind] {
			xs = append(xs, v)
		}
		return median(xs)
	}
	base := med("interp.run.base")
	r.metrics["interp.base_run_ms"] = base
	r.metrics["run_s.base"] = med("engine.run_base") / 1000
	var steps uint64
	for _, p := range s.progs {
		steps += s.ref[p.name+"/base"].Steps
	}
	r.metrics["interp.steps_per_s"] = ratio(float64(steps), base/1000)
	for _, pl := range placements {
		checked := med("interp.run." + pl)
		r.metrics["interp.checked_run_ms."+pl] = checked
		r.metrics["interp.check_dispatch_ms."+pl] = checked - base
	}
	var syncOps uint64
	for _, v := range variants {
		var c counters
		for _, p := range s.progs {
			k := s.ref[p.name+"/"+v]
			c.ShadowOps += k.ShadowOps
			c.FootprintOps += k.FootprintOps
			c.SyncOps += k.SyncOps
			c.PeakWords += k.PeakWords
			c.FastPaths += k.FastPaths
		}
		syncOps = c.SyncOps
		run := med("engine.run." + v)
		det := run - r.metrics["interp.checked_run_ms."+placementOf(v)]
		r.metrics["run_s."+v] = run / 1000
		r.metrics["detector.ms."+v] = det
		r.metrics["detector.ns_per_op."+v] = ratio(det*1e6, float64(c.ShadowOps+c.FootprintOps+c.SyncOps))
		r.metrics["detector.shadow_ops."+v] = float64(c.ShadowOps)
		r.metrics["detector.fastpath_hit_ratio."+v] = ratio(float64(c.FastPaths), float64(c.ShadowOps+c.SyncOps))
		r.metrics["detector.peak_words."+v] = float64(c.PeakWords)
		if v == "SS" || v == "SC" || v == "BF" {
			r.metrics["detector.footprint_ops."+v] = float64(c.FootprintOps)
		}
	}
	r.metrics["detector.sync_ops"] = float64(syncOps)
}

// setupEval builds every program on a fresh engine, as often as
// repeatSetUp asks, and records each set-up time.  The last engine and
// builds are kept.  Traced runs record the builds' spans and layer
// metrics.
func setupEval(cfg config, names []string, r *run) (*evalState, error) {
	scale := workloads.DefaultScale()
	if cfg.tiny {
		scale = workloads.TestScale()
	}
	s := &evalState{cfg: cfg, ref: map[string]counters{}, r: r}
	var traced buildCost
	setups, err := r.repeatSetUp(cfg.tiny, func(i int) error {
		s.eng = engine.New(engine.Options{})
		s.progs = nil
		for _, name := range names {
			w, ok := workloads.ByName(name, scale)
			if !ok {
				return fmt.Errorf("no workload %q", name)
			}
			p, _, err := build(s.eng, r.spans, fmt.Sprintf("setup%d/%s", i, name), name, w.Source)
			if err != nil {
				return err
			}
			s.progs = append(s.progs, p)
			if r.spans != nil {
				traced.add(p)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.setups = setups
	traced.metrics(r)
	return s, nil
}
