package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"bigfoot/internal/bfgen"
	"bigfoot/internal/engine"
	"bigfoot/internal/interp"
	"bigfoot/internal/workloads"
)

// prepared is one program ready to run: the uninstrumented base and the
// five detector variants in the paper's order, with what the build cost.
type prepared struct {
	name     string
	base     *interp.Compiled
	variants []*engine.Variant
	timings  engine.BuildTimings
	bf       engine.PlacementStats // the StaticBF placement's analysis cost
}

// digest renders the program's static placement (checks placed and BF
// check items per variant), which must not change between builds.
func (p *prepared) digest() string {
	var b strings.Builder
	for i, v := range p.variants {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d/%d", v.Name, v.Stats.ChecksPlaced, v.Stats.CheckItems)
	}
	return b.String()
}

// build is the bench's one build path: engine.BuildSource with the base,
// checked to return the base plus all five variants, and its CPU time.
// With a tracer it records the call as an "engine.build" span whose
// children are the stages BuildSource times itself (parse, then every
// placement's instrumentation, then compilation), laid end to end.
func build(e *engine.Engine, tr *tracer, op, name, src string) (*prepared, time.Duration, error) {
	var art *engine.Artifact
	var err error
	id := tr.begin("engine.build", op, 0)
	d := cpuTimeOf(func() { art, _, err = e.BuildSource(src, engine.BuildSpec{WithBase: true}) })
	tr.end(id)
	if err != nil {
		return nil, d, fmt.Errorf("%s: build: %w", name, err)
	}
	t := art.Timings
	tr.stages(id, op, stage{"bfj.parse", t.Parse}, stage{"engine.instrument", t.Instrument}, stage{"interp.compile", t.Compile})
	p := &prepared{name: name, base: art.Base, variants: art.Variants, timings: t, bf: art.Stats}
	return p, d, p.complete()
}

func (p *prepared) complete() error {
	if p.base == nil || len(p.variants) != len(variants) {
		return fmt.Errorf("%s: build returned base=%v and %d variants, want base and %d",
			p.name, p.base != nil, len(p.variants), len(variants))
	}
	for i, v := range p.variants {
		if v.Name != variants[i] || v.Compiled == nil {
			return fmt.Errorf("%s: variant %d is %q, want compiled %s", p.name, i, v.Name, variants[i])
		}
	}
	return nil
}

// buildCost sums, over builds, the stage times engine.BuildSource
// reported and StaticBF's work.  Summing rather than keeping the builds
// lets a traced phase drop each artifact, as the untraced phase does.
type buildCost struct {
	n                     int
	parse, inst, comp, bf time.Duration
	bodies, items         int
}

func (c *buildCost) add(p *prepared) {
	c.n++
	c.parse += p.timings.Parse
	c.inst += p.timings.Instrument
	c.comp += p.timings.Compile
	c.bf += p.bf.AnalysisTime
	c.bodies += p.bf.BodiesAnalyzed
	c.items += p.bf.CheckItems
}

// metrics sets the build layers' per-build means.  analysis.bf_ms is
// StaticBF's own AnalysisTime, summed over bodies; bodies analyzed in
// parallel can make it exceed their share of engine.instrument_ms.
func (c *buildCost) metrics(r *run) {
	if c.n == 0 {
		return
	}
	n := float64(c.n)
	r.metrics["bfj.parse_ms"] = ms(c.parse) / n
	r.metrics["engine.instrument_ms"] = ms(c.inst) / n
	r.metrics["interp.compile_ms"] = ms(c.comp) / n
	r.metrics["analysis.bf_ms"] = ms(c.bf) / n
	r.metrics["analysis.bodies"] = float64(c.bodies) / n
	r.metrics["analysis.check_items"] = float64(c.items) / n
	r.metrics["analysis.ms_per_body"] = ratio(ms(c.bf), float64(c.bodies))
}

// buildSource is one source the build-cold workload compiles.
type buildSource struct{ name, src string }

// corpusSeed draws the bfgen corpus: the generated programs build-cold
// builds and service-mixed submits as cache misses, the same in every
// run.  Drawn from each run's seed instead, a few hundred programs were
// too few to pin the percentiles of bfgen's build times: build-cold's
// op_ms_p50 spread 0.19 over ten seeds of the same code, against 0.04
// over ten runs of one seed.
const corpusSeed = 1

// bfgenCorpus returns the corpus's first n programs, bfgen-0, bfgen-1, ...
func bfgenCorpus(n int) []buildSource {
	rng := rand.New(rand.NewSource(corpusSeed))
	srcs := make([]buildSource, n)
	for i := range srcs {
		srcs[i] = buildSource{fmt.Sprintf("bfgen-%d", i), bfgen.Generate(rng, bfgen.DefaultConfig()).Source}
	}
	return srcs
}

// buildColdSources lists the 19 evaluation programs and the first n
// corpus programs, in an order drawn from seed.
func buildColdSources(seed int64, scale workloads.Scale, n int) []buildSource {
	var srcs []buildSource
	for _, w := range workloads.All(scale) {
		srcs = append(srcs, buildSource{w.Name, w.Source})
	}
	srcs = append(srcs, bfgenCorpus(n)...)
	rand.New(rand.NewSource(seed)).Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
	return srcs
}

// buildGenerated is how many bfgen programs follow the 19 evaluation
// programs in build-cold's fixed program set: one pass over the set
// takes 2 to 4 s on a 2-core host, and the 90th percentile has 40
// builds beyond it.
const buildGenerated = 381

// runBuildCold builds programs on an uncached engine from one caller
// and runs nothing: StaticBF and entailment dominate, the interpreter
// and detector are idle.  It builds a fixed set of programs in the
// seed's order, pass after pass, for the measured phase, so each
// build's latency is the median of its passes.
func runBuildCold(ctx context.Context, cfg config) (*run, error) {
	r := newRun(cfg)
	scale, generated := workloads.DefaultScale(), buildGenerated
	if cfg.tiny {
		scale, generated = workloads.TestScale(), 21
	}
	// Set-up: generate the programs and make the uncached engine.
	var srcs []buildSource
	var eng *engine.Engine
	setups, err := r.repeatSetUp(cfg.tiny, func(int) error {
		srcs = buildColdSources(cfg.seed, scale, generated)
		eng = engine.New(engine.Options{CacheSize: 0})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// digests[i] is srcs[i]'s placement from its first build; every
	// later build of the same source must agree.
	digests := make([]string, len(srcs))
	lat := make(opTimes, len(srcs))
	var traced buildCost

	// pass builds every program in turn, calling betweenOps before every
	// 8th.  It builds each program once per entry of trs, back to back,
	// under that tracer (nil: untraced), and returns, per entry of trs,
	// the summed CPU time (ms).
	pass := func(trs ...*tracer) []float64 {
		total := make([]float64, len(trs))
		for i, s := range srcs {
			if i%8 == 0 {
				r.betweenOps()
			}
			for j, tr := range trs {
				at := time.Now()
				p, d, err := build(eng, tr, s.name, s.name, s.src)
				if err == nil && digests[i] != "" && digests[i] != p.digest() {
					err = fmt.Errorf("%s: placement %q differs from the earlier build's %q", s.name, p.digest(), digests[i])
				}
				if !r.op(err) {
					continue
				}
				lat.add(i, timing{at, d})
				total[j] += ms(d)
				digests[i] = p.digest()
				if tr != nil {
					traced.add(p)
				}
			}
		}
		return total
	}

	if !cfg.trace {
		repeat(cfg.seconds, func(int) {
			r.startPass()
			pass(nil)
		})
		r.metrics["setup_s"] = r.probe.scaledMedianS(setups)
		r.opMetrics(lat.medians(r.probe), true)
	} else {
		// Each program is built untraced (the reference) and then traced,
		// back to back, so the pair prices the tracing on the same host
		// load.
		var ref, tr float64
		repeat(cfg.seconds, func(int) {
			total := pass(nil, r.spans)
			ref, tr = ref+total[0], tr+total[1]
		})
		r.metrics["trace_overhead_frac"] = ratio(tr, ref) - 1
		traced.metrics(r)
	}

	// The digest holds each evaluation program's placement and a hash
	// over the corpus programs' placements, in corpus order.
	r.digest = map[string]string{}
	for i, s := range srcs {
		r.digest[s.name] = digests[i]
	}
	h := sha256.New()
	for i := 0; i < generated; i++ {
		name := fmt.Sprintf("bfgen-%d", i)
		fmt.Fprintln(h, r.digest[name])
		delete(r.digest, name)
	}
	r.digest[fmt.Sprintf("bfgen[0:%d]", generated)] = hex.EncodeToString(h.Sum(nil))[:16]
	return r, nil
}
