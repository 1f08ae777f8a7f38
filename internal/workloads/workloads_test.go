package workloads

import (
	"testing"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfj"
	"bigfoot/internal/detector"
	"bigfoot/internal/instrument"
	"bigfoot/internal/interp"
	"bigfoot/internal/proxy"
)

// TestAllWorkloadsParseAndRun executes every workload uninstrumented and
// verifies it completes without runtime errors (asserts inside the BFJ
// sources validate kernel results).
func TestAllWorkloadsParseAndRun(t *testing.T) {
	for _, w := range All(TestScale()) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := bfj.Parse(w.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			c, err := interp.Run(prog, interp.NopHook{}, interp.Options{Seed: 1})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if c.Accesses() == 0 {
				t.Errorf("no worker accesses recorded")
			}
			t.Logf("steps=%d accesses=%d syncs=%d threads=%d", c.Steps, c.Accesses(), c.SyncOps, c.Threads)
		})
	}
}

// TestAllWorkloadsRaceFree runs each workload under the oracle on two
// schedules; the paper's methodology requires race-free benchmarks.
func TestAllWorkloadsRaceFree(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is slow")
	}
	for _, w := range All(TestScale()) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog := w.Parse()
			for seed := int64(0); seed < 2; seed++ {
				o := detector.NewOracle()
				if _, err := interp.Run(prog, o, interp.Options{Seed: seed}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if o.HasRaces() {
					t.Fatalf("seed %d: workload has races: %v", seed, o.RacyDescs())
				}
			}
		})
	}
}

// TestBigFootInstrumentsAllWorkloads verifies the full static pipeline
// runs on every workload and the instrumented program still passes its
// own assertions with the BigFoot detector attached and reports no
// races.
func TestBigFootInstrumentsAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline sweep is slow")
	}
	for _, w := range All(TestScale()) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog := w.Parse()
			big := analysis.New(prog, analysis.Options{}).Instrument()
			d := detector.New(detector.Config{Footprints: true, Proxies: proxy.Analyze(big)})
			c, err := interp.Run(big, d, interp.Options{Seed: 1})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if d.RaceCount() != 0 {
				t.Errorf("false alarms: %v", d.SortedRaceDescs())
			}
			ratio := float64(c.CheckItems) / float64(c.Accesses())
			t.Logf("accesses=%d checks=%d ratio=%.3f shadowOps=%d modes=%v",
				c.Accesses(), c.CheckItems, ratio, d.Stats.ShadowOps, d.ArrayModes())
		})
	}
}

// TestRedCardInstrumentsAllWorkloads does the same for the RedCard
// placement.
func TestRedCardInstrumentsAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline sweep is slow")
	}
	for _, w := range All(TestScale()) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog := w.Parse()
			red, st := instrument.RedCard(prog)
			d := detector.New(detector.Config{Proxies: proxy.Analyze(red)})
			c, err := interp.Run(red, d, interp.Options{Seed: 1})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if d.RaceCount() != 0 {
				t.Errorf("false alarms: %v", d.SortedRaceDescs())
			}
			t.Logf("checks=%d suppressed=%d ratio=%.3f", c.CheckItems, st.ChecksSuppressed,
				float64(c.CheckItems)/float64(c.Accesses()))
		})
	}
}

// TestRegistryComplete verifies the Table 1 program list: 19 programs,
// paper order, both suites represented.
func TestRegistryComplete(t *testing.T) {
	ws := All(DefaultScale())
	want := []string{
		"crypt", "series", "lufact", "moldyn", "montecarlo", "sparse", "sor",
		"batik", "raytracer", "tomcat", "sunflow", "luindex", "pmd", "fop",
		"lusearch", "avrora", "jython", "xalan", "h2",
	}
	if len(ws) != len(want) {
		t.Fatalf("%d workloads, want %d", len(ws), len(want))
	}
	jg, dc := 0, 0
	for i, w := range ws {
		if w.Name != want[i] {
			t.Errorf("position %d: %s, want %s", i, w.Name, want[i])
		}
		switch w.Suite {
		case "javagrande":
			jg++
		case "dacapo":
			dc++
		default:
			t.Errorf("%s: unknown suite %q", w.Name, w.Suite)
		}
		if w.Profile == "" {
			t.Errorf("%s: missing profile", w.Name)
		}
	}
	if jg != 8 || dc != 11 {
		t.Errorf("suites: javagrande=%d dacapo=%d, want 8/11", jg, dc)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("crypt", DefaultScale()); !ok {
		t.Error("crypt not found")
	}
	if _, ok := ByName("nope", DefaultScale()); ok {
		t.Error("bogus name found")
	}
}

// TestScalingGrowsWork: scale N=2 must produce more accesses than N=1.
func TestScalingGrowsWork(t *testing.T) {
	for _, name := range []string{"crypt", "tomcat"} {
		small, _ := ByName(name, Scale{N: 1, T: 2})
		large, _ := ByName(name, Scale{N: 2, T: 2})
		cs, err := interp.Run(small.Parse(), interp.NopHook{}, interp.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := interp.Run(large.Parse(), interp.NopHook{}, interp.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if cl.Accesses() <= cs.Accesses() {
			t.Errorf("%s: scale 2 accesses %d not above scale 1 %d", name, cl.Accesses(), cs.Accesses())
		}
	}
}

// TestThreadCountRespected: T controls the number of worker threads.
func TestThreadCountRespected(t *testing.T) {
	w, _ := ByName("crypt", Scale{N: 1, T: 3})
	c, err := interp.Run(w.Parse(), interp.NopHook{}, interp.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// crypt forks T workers twice (encrypt + decrypt) plus thread 0.
	if c.Threads != 1+2*3 {
		t.Errorf("threads = %d, want 7", c.Threads)
	}
}

// TestBarrierIsRaceFreeUnderStress: the shared Barrier implementation
// synchronizes correctly across many schedules (it was a source of races
// in the original JavaGrande).
func TestBarrierIsRaceFreeUnderStress(t *testing.T) {
	src := `
` + barrierClass + `
class W {
  method phase(a, bar, t, nt, iters) {
    n = alen(a);
    for (it = 0; it < iters; it = it + 1) {
      lo = t * n / nt;
      hi = (t + 1) * n / nt;
      for (i = lo; i < hi; i = i + 1) { a[i] = a[i] + 1; }
      bar.await();
      // Read a neighbour partition: safe only if the barrier works.
      other = (t + 1) % nt;
      olo = other * n / nt;
      v = a[olo];
      bar.await();
    }
  }
}
setup {
  a = newarray 32;
  bar = new Barrier;
  bar.init(3);
  w = new W;
  h0 = fork w.phase(a, bar, 0, 3, 4);
  h1 = fork w.phase(a, bar, 1, 3, 4);
  h2 = fork w.phase(a, bar, 2, 3, 4);
  join h0;
  join h1;
  join h2;
}`
	prog := bfj.MustParse(src)
	for seed := int64(0); seed < 10; seed++ {
		o := detector.NewOracle()
		if _, err := interp.Run(prog, o, interp.Options{Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if o.HasRaces() {
			t.Fatalf("seed %d: barrier races: %v", seed, o.RacyDescs())
		}
	}
}

// TestWorkloadSourcesRoundTripThroughPrinter: every workload (and its
// BigFoot-instrumented form) pretty-prints to re-parseable BFJ whose
// second printing is a fixed point.
func TestWorkloadSourcesRoundTripThroughPrinter(t *testing.T) {
	for _, w := range All(TestScale()) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog := w.Parse()
			for _, variant := range []*bfj.Program{
				prog,
				analysis.New(prog, analysis.Options{}).Instrument(),
			} {
				text := bfj.FormatProgram(variant)
				re, err := bfj.Parse(text)
				if err != nil {
					t.Fatalf("re-parse: %v", err)
				}
				if bfj.FormatProgram(re) != text {
					t.Fatal("printer not a fixed point")
				}
			}
		})
	}
}
