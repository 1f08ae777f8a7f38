package bigfoot_test

// Benchmarks regenerating each evaluation artifact of the paper (run
// with `go test -bench=. -benchmem`).  One benchmark per table/figure
// reports its headline numbers as custom metrics; the evaluation run is
// shared across the artifact benchmarks.  Additional benchmarks cover
// per-detector costs on a representative workload and the ablations of
// BigFoot's design choices (coalescing, anticipation, loop invariants).

import (
	"strings"
	"sync"
	"testing"

	"bigfoot"
	"bigfoot/internal/analysis"
	"bigfoot/internal/bfj"
	"bigfoot/internal/detector"
	"bigfoot/internal/engine"
	"bigfoot/internal/harness"
	"bigfoot/internal/interp"
	"bigfoot/internal/proxy"
	"bigfoot/internal/workloads"
)

var (
	evalOnce    sync.Once
	evalResults []*harness.ProgramResult
	evalErr     error
)

// evaluation runs the full workload × detector sweep once and shares it
// across the artifact benchmarks.
func evaluation(b *testing.B) []*harness.ProgramResult {
	b.Helper()
	evalOnce.Do(func() {
		r := &harness.Runner{Opts: harness.Options{
			Scale:  workloads.Scale{N: 1, T: 2},
			Seed:   42,
			Trials: 1,
		}}
		evalResults, evalErr = r.RunAll()
	})
	if evalErr != nil {
		b.Fatal(evalErr)
	}
	return evalResults
}

func geoOverhead(rs []*harness.ProgramResult, det string) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.Detectors[det].Overhead)
	}
	return harness.GeoMean(xs)
}

// BenchmarkFigure2 regenerates the detector comparison (paper: FT 7.3x,
// RC 6.0x, SS 6.0x, SC 5.1x, BF 2.5x).
func BenchmarkFigure2(b *testing.B) {
	rs := evaluation(b)
	for i := 0; i < b.N; i++ {
		_ = harness.Figure2(rs)
	}
	for _, det := range engine.VariantNames {
		b.ReportMetric(geoOverhead(rs, det), det+"-overhead-x")
	}
}

// BenchmarkFigure8CheckRatio regenerates the check-ratio comparison
// (paper: BF mean 0.43, BF/FT overhead 0.39).
func BenchmarkFigure8CheckRatio(b *testing.B) {
	rs := evaluation(b)
	for i := 0; i < b.N; i++ {
		_ = harness.Figure8(rs)
	}
	var ratios []float64
	for _, r := range rs {
		ratios = append(ratios, r.Detectors["BF"].CheckRatio)
	}
	b.ReportMetric(harness.Mean(ratios), "BF-check-ratio")
	b.ReportMetric(geoOverhead(rs, "BF")/geoOverhead(rs, "FT"), "BF/FT-overhead")
}

// BenchmarkTable1 regenerates checker performance (paper means: FT
// 7.26x … BF 2.47x, BF/FT 0.39, static 0.16 s/method).
func BenchmarkTable1(b *testing.B) {
	rs := evaluation(b)
	for i := 0; i < b.N; i++ {
		_ = harness.Table1(rs)
	}
	var static []float64
	for _, r := range rs {
		static = append(static, r.StaticTime.Seconds()/float64(maxi(1, r.MethodsAnalyzed)))
	}
	b.ReportMetric(harness.Mean(static), "static-s/body")
	b.ReportMetric(geoOverhead(rs, "BF"), "BF-overhead-x")
}

// BenchmarkTable2 regenerates space overhead (paper: BF/SS/SC ≈
// 0.72–0.74 of FT).
func BenchmarkTable2(b *testing.B) {
	rs := evaluation(b)
	for i := 0; i < b.N; i++ {
		_ = harness.Table2(rs)
	}
	var bfRel []float64
	for _, r := range rs {
		ft := r.Detectors["FT"].SpaceOverX
		if ft > 0 {
			bfRel = append(bfRel, r.Detectors["BF"].SpaceOverX/ft)
		}
	}
	b.ReportMetric(harness.GeoMean(bfRel), "BF/FT-space")
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BenchmarkDetector measures wall time of each detector on the moldyn
// workload (one interpreted execution per iteration).
func BenchmarkDetector(b *testing.B) {
	w, _ := workloads.ByName("moldyn", workloads.Scale{N: 1, T: 2})
	prog := bigfoot.MustParse(w.Source)
	for _, mode := range []bigfoot.Mode{
		bigfoot.FastTrack, bigfoot.RedCard, bigfoot.SlimState,
		bigfoot.SlimCard, bigfoot.BigFoot,
	} {
		mode := mode
		compiled, err := prog.Instrument(mode).Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.String(), func(b *testing.B) {
			var rep *bigfoot.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = compiled.Run(bigfoot.RunConfig{Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.CheckRatio, "check-ratio")
			b.ReportMetric(float64(rep.ShadowOps), "shadow-ops")
		})
	}
}

// BenchmarkAblation isolates BigFoot's design choices (DESIGN.md): full
// placement vs. no path coalescing, no anticipated-access reasoning,
// and no loop invariants, measured by executed checks.  moldyn shows
// the array-side effects; the Fig. 6(b)-style field loop shows where
// anticipation is load-bearing (without it the loop-carried field read
// is checked every iteration).
func BenchmarkAblation(b *testing.B) {
	w, _ := workloads.ByName("moldyn", workloads.Scale{N: 1, T: 2})
	b.Run("moldyn", func(b *testing.B) { ablate(b, bfj.MustParse(w.Source)) })
	fieldLoop := bfj.MustParse(`
class C { field f; }
setup { c = new C; a = newarray 2000; n = 2000; }
thread {
  i = 0;
  while (i < n) {
    t = c.f;
    a[i] = t;
    i = i + 1;
  }
}
thread { x = 0; }
`)
	b.Run("fieldloop", func(b *testing.B) { ablate(b, fieldLoop) })
}

func ablate(b *testing.B, base *bfj.Program) {
	variants := []struct {
		name string
		opts analysis.Options
	}{
		{"Full", analysis.Options{}},
		{"NoCoalescing", analysis.Options{NoCoalescing: true}},
		{"NoAnticipation", analysis.Options{NoAnticipation: true}},
		{"NoLoopInvariants", analysis.Options{NoLoopInvariants: true}},
	}
	b.Helper()
	for _, v := range variants {
		v := v
		prog := analysis.New(base, v.opts).Instrument()
		prox := proxy.Analyze(prog)
		compiled := interp.MustCompile(prog)
		b.Run(v.name, func(b *testing.B) {
			var checks uint64
			var shadow uint64
			for i := 0; i < b.N; i++ {
				d := detector.New(detector.Config{Footprints: true, Proxies: prox})
				c, err := compiled.Run(d, interp.Options{Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				checks = c.CheckItems
				shadow = d.Stats.ShadowOps
			}
			b.ReportMetric(float64(checks), "checks")
			b.ReportMetric(float64(shadow), "shadow-ops")
		})
	}
}

// BenchmarkStaticAnalysis measures StaticBF's analysis cost over all
// workload programs (§6.1: the paper reports 0.16s per method on its
// benchmark suite), with its allocations and the time per analyzed body.
func BenchmarkStaticAnalysis(b *testing.B) {
	var progs []*bfj.Program
	for _, w := range workloads.All(workloads.Scale{N: 1, T: 2}) {
		progs = append(progs, bfj.MustParse(w.Source))
	}
	b.ReportAllocs()
	b.ResetTimer()
	bodies := 0
	for i := 0; i < b.N; i++ {
		bodies = 0
		for _, p := range progs {
			an := analysis.New(p, analysis.Options{})
			_ = an.Instrument()
			bodies += an.Stats.BodiesAnalyzed
		}
	}
	b.ReportMetric(float64(bodies), "bodies")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(bodies)/float64(b.N), "ns/body")
}

// BenchmarkInterpreter measures base (uninstrumented) execution speed
// on an array kernel (crypt), an expression-heavy kernel (moldyn) and
// an object- and call-heavy program (pmd), at test scale, and on four
// threads of tight loops with no heap traffic, where the scheduler's
// hand-off between slices is the cost beside dispatch.  Those threads
// never block, so every slice but each thread's last runs its full
// budget, drawn uniformly from the default 20..120 steps: the run takes
// steps/70 slices.  crypt/every runs crypt's every-access placement
// (the FT and SS variant) under NopHook: the cost of dispatching a
// singleton check before each array access, without a detector.
func BenchmarkInterpreter(b *testing.B) {
	progs := []struct{ name, src string }{{name: "crypt"}, {name: "crypt/every"}, {name: "moldyn"}, {name: "pmd"}, {name: "threads4", src: `
setup { n = 100000; }
thread { for (i = 0; i < n; i = i + 1) { x = i + 1; } }
thread { for (i = 0; i < n; i = i + 1) { x = i + 2; } }
thread { for (i = 0; i < n; i = i + 1) { x = i + 3; } }
thread { for (i = 0; i < n; i = i + 1) { x = i + 4; } }
`}}
	for _, p := range progs {
		b.Run(p.name, func(b *testing.B) {
			name, every := strings.CutSuffix(p.name, "/every")
			src := p.src
			if src == "" {
				w, _ := workloads.ByName(name, workloads.TestScale())
				src = w.Source
			}
			prog := bfj.MustParse(src)
			if every {
				prog = engine.InstrumentFor(prog, "FT").Prog
			}
			compiled := interp.MustCompile(prog)
			var steps uint64
			for i := 0; i < b.N; i++ {
				c, err := compiled.Run(interp.NopHook{}, interp.Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				steps = c.Steps
			}
			nsPerStep := float64(b.Elapsed().Nanoseconds()) / float64(steps) / float64(b.N)
			b.ReportMetric(float64(steps)/1e6, "Msteps")
			b.ReportMetric(nsPerStep, "ns/step")
			if p.src != "" { // threads4: steps/70 slices
				b.ReportMetric(70*nsPerStep, "ns/slice")
			}
		})
	}
}

// BenchmarkEntailment measures the solver on a representative
// loop-invariant query mix.
func BenchmarkEntailment(b *testing.B) {
	src := `
setup { a = newarray 100; n = 100; }
thread {
  for (i = 0; i < n; i = i + 1) {
    a[i] = i;
  }
}`
	prog := bfj.MustParse(src)
	for i := 0; i < b.N; i++ {
		an := analysis.New(prog, analysis.Options{})
		_ = an.Instrument()
	}
}
