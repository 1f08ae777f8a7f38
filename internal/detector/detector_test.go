package detector

import (
	"fmt"
	"testing"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfj"
	"bigfoot/internal/instrument"
	"bigfoot/internal/interp"
	"bigfoot/internal/proxy"
	"bigfoot/internal/trace"
)

// variant builds each instrumented program + detector pair.
type variant struct {
	name string
	prog *bfj.Program
	det  *Detector
}

// buildVariants instruments src for all five detectors.
func buildVariants(t *testing.T, src string) []variant {
	t.Helper()
	base, err := bfj.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	every, _ := instrument.EveryAccess(base)
	red, _ := instrument.RedCard(base)
	big := analysis.New(base, analysis.DefaultOptions()).Instrument()

	redProx := proxy.Analyze(red)
	bigProx := proxy.Analyze(big)

	return []variant{
		{"FT", every, New(Config{Name: "FT"})},
		{"RC", red, New(Config{Name: "RC", Proxies: redProx})},
		{"SS", every, New(Config{Name: "SS", Footprints: true})},
		{"SC", red, New(Config{Name: "SC", Footprints: true, Proxies: redProx})},
		{"BF", big, New(Config{Name: "BF", Footprints: true, Proxies: bigProx})},
	}
}

// runWithOracle executes one variant alongside the oracle on the same
// schedule.
func runWithOracle(t *testing.T, v variant, seed int64) (*Detector, *Oracle) {
	t.Helper()
	o := NewOracle()
	_, err := interp.Run(v.prog, trace.Tee(v.det, o), interp.Options{Seed: seed})
	if err != nil {
		t.Fatalf("%s seed %d: %v", v.name, seed, err)
	}
	return v.det, o
}

const racyCounter = `
class Cell { field v; }
setup { c = new Cell; c.v = 0; }
thread { for (i = 0; i < 200; i = i + 1) { x = c.v; c.v = x + 1; } }
thread { for (i = 0; i < 200; i = i + 1) { x = c.v; c.v = x + 1; } }
`

const lockedCounter = `
class Cell { field v; }
setup { c = new Cell; c.v = 0; l = new Cell; }
thread { for (i = 0; i < 200; i = i + 1) { acquire l; x = c.v; c.v = x + 1; release l; } }
thread { for (i = 0; i < 200; i = i + 1) { acquire l; x = c.v; c.v = x + 1; release l; } }
`

const racyArray = `
setup { a = newarray 64; }
thread { for (i = 0; i < 64; i = i + 1) { a[i] = 1; } }
thread { for (i = 0; i < 64; i = i + 1) { a[i] = 2; } }
`

const disjointArray = `
setup { a = newarray 64; }
thread { for (i = 0; i < 32; i = i + 1) { a[i] = 1; } }
thread { for (i = 32; i < 64; i = i + 1) { a[i] = 2; } }
`

const forkJoinClean = `
class Worker {
  method fill(a, lo, hi) {
    for (i = lo; i < hi; i = i + 1) { a[i] = i; }
  }
}
setup {
  a = newarray 100;
  w = new Worker;
  t1 = fork w.fill(a, 0, 50);
  t2 = fork w.fill(a, 50, 100);
  join t1;
  join t2;
  sum = 0;
  for (i = 0; i < 100; i = i + 1) { sum = sum + a[i]; }
  assert sum == 4950;
}
thread { }
`

func TestAllDetectorsFindRacyCounter(t *testing.T) {
	for _, v := range buildVariants(t, racyCounter) {
		found := false
		for seed := int64(0); seed < 8 && !found; seed++ {
			det, oracle := runWithOracle(t, variant{v.name, v.prog, New(cfgOf(v))}, seed)
			if oracle.HasRaces() {
				if det.RaceCount() == 0 {
					t.Errorf("%s seed %d: oracle saw races %v but detector found none",
						v.name, seed, oracle.RacyDescs())
				}
				found = true
			}
		}
		if !found {
			t.Logf("%s: no schedule exposed the race in 8 seeds (unlikely)", v.name)
		}
	}
}

func cfgOf(v variant) Config {
	return v.det.cfg
}

func TestNoFalseAlarmsOnLockedCounter(t *testing.T) {
	for _, v := range buildVariants(t, lockedCounter) {
		for seed := int64(0); seed < 6; seed++ {
			det, oracle := runWithOracle(t, variant{v.name, v.prog, New(cfgOf(v))}, seed)
			if oracle.HasRaces() {
				t.Fatalf("oracle should see no races in locked counter")
			}
			if det.RaceCount() != 0 {
				t.Errorf("%s seed %d: false alarm(s): %v", v.name, seed, det.SortedRaceDescs())
			}
		}
	}
}

func TestAllDetectorsFindArrayRaces(t *testing.T) {
	for _, v := range buildVariants(t, racyArray) {
		foundAny := false
		for seed := int64(0); seed < 8; seed++ {
			det, oracle := runWithOracle(t, variant{v.name, v.prog, New(cfgOf(v))}, seed)
			if oracle.HasRaces() && det.RaceCount() > 0 {
				foundAny = true
			}
			if oracle.HasRaces() && det.RaceCount() == 0 {
				t.Errorf("%s seed %d: missed array race", v.name, seed)
			}
		}
		if !foundAny {
			t.Logf("%s: race never exposed (schedule dependent)", v.name)
		}
	}
}

func TestNoFalseAlarmsOnDisjointArray(t *testing.T) {
	for _, v := range buildVariants(t, disjointArray) {
		for seed := int64(0); seed < 6; seed++ {
			det, oracle := runWithOracle(t, variant{v.name, v.prog, New(cfgOf(v))}, seed)
			if oracle.HasRaces() {
				t.Fatal("oracle should see no races on disjoint halves")
			}
			if det.RaceCount() != 0 {
				t.Errorf("%s seed %d: false alarm: %v", v.name, seed, det.SortedRaceDescs())
			}
		}
	}
}

func TestForkJoinCleanProgram(t *testing.T) {
	for _, v := range buildVariants(t, forkJoinClean) {
		for seed := int64(0); seed < 6; seed++ {
			det, oracle := runWithOracle(t, variant{v.name, v.prog, New(cfgOf(v))}, seed)
			if oracle.HasRaces() {
				t.Fatal("fork/join program should be race free")
			}
			if det.RaceCount() != 0 {
				t.Errorf("%s seed %d: false alarm: %v", v.name, seed, det.SortedRaceDescs())
			}
		}
	}
}

// TestCheckCountOrdering verifies the headline static result: BigFoot
// executes fewer checks than RedCard, which executes fewer than
// FastTrack, on a loop-heavy workload.
func TestCheckCountOrdering(t *testing.T) {
	src := `
class P { field x, y, z; }
setup {
  a = newarray 1000;
  p = new P;
  l = new P;
}
thread {
  for (i = 0; i < 1000; i = i + 1) { a[i] = i; }
  acquire l;
  t1 = p.x;
  p.x = t1 + 1;
  u1 = p.x;
  u2 = p.x;
  u3 = p.x;
  t2 = p.y;
  p.y = t2 + u1 + u2 + u3;
  t3 = p.z;
  p.z = t3 + 1;
  w1 = a[0];
  w2 = a[0];
  w3 = a[0];
  p.z = w1 + w2 + w3;
  release l;
}
thread {
  acquire l;
  s = 0;
  for (i = 0; i < 1000; i = i + 1) { s = s + a[i]; }
  release l;
}
`
	counts := map[string]uint64{}
	for _, v := range buildVariants(t, src) {
		c, err := interp.Run(v.prog, v.det, interp.Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		counts[v.name] = c.CheckItems
		t.Logf("%s: accesses=%d checks=%d shadowOps=%d", v.name, c.Accesses(), c.CheckItems, v.det.Stats.ShadowOps)
	}
	if !(counts["BF"] < counts["RC"] && counts["RC"] < counts["FT"]) {
		t.Errorf("expected BF < RC < FT checks, got %v", counts)
	}
	if counts["FT"] != counts["SS"] {
		t.Errorf("FT and SS share instrumentation; counts differ: %v", counts)
	}
	// BigFoot should coalesce each whole-array loop into O(1) checks.
	if counts["BF"] > 40 {
		t.Errorf("BF executed %d checks; expected a small constant", counts["BF"])
	}
}

// TestBigFootShadowOpsReduced: with coarse array shadows, BigFoot's
// whole-array checks cost O(1) shadow ops while FastTrack pays per
// element.
func TestBigFootShadowOpsReduced(t *testing.T) {
	src := `
setup { a = newarray 500; }
thread { for (i = 0; i < 500; i = i + 1) { a[i] = i; } }
thread { s = 0; }
`
	vs := buildVariants(t, src)
	var ft, bf uint64
	for _, v := range vs {
		if _, err := interp.Run(v.prog, v.det, interp.Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
		switch v.name {
		case "FT":
			ft = v.det.Stats.ShadowOps
		case "BF":
			bf = v.det.Stats.ShadowOps
		}
	}
	if bf*10 > ft {
		t.Errorf("BF shadow ops (%d) should be well below FT (%d)", bf, ft)
	}
}

// TestPrecisionSweep: across many schedules and programs, each detector
// agrees with the oracle on whether the trace has a race
// (trace-precision).
func TestPrecisionSweep(t *testing.T) {
	programs := []string{racyCounter, lockedCounter, racyArray, disjointArray, forkJoinClean}
	for pi, src := range programs {
		for _, v := range buildVariants(t, src) {
			for seed := int64(0); seed < 4; seed++ {
				det, oracle := runWithOracle(t, variant{v.name, v.prog, New(cfgOf(v))}, seed)
				oHas, dHas := oracle.HasRaces(), det.RaceCount() > 0
				if oHas != dHas {
					t.Errorf("program %d, %s, seed %d: oracle races=%v detector races=%v (%v vs %v)",
						pi, v.name, seed, oHas, dHas, oracle.RacyDescs(), det.SortedRaceDescs())
				}
			}
		}
	}
}

// TestAddressPrecisionOnFields: racy field locations reported by the
// detector match the oracle exactly (modulo proxy grouping).
func TestAddressPrecisionOnFields(t *testing.T) {
	src := `
class Pair { field a, b; }
setup { p = new Pair; p.a = 0; p.b = 0; l = new Pair; }
thread { p.a = 1; acquire l; p.b = 1; release l; }
thread { p.a = 2; acquire l; p.b = 2; release l; }
`
	// p.a races; p.b is lock protected.
	for _, v := range buildVariants(t, src) {
		for seed := int64(0); seed < 6; seed++ {
			det, oracle := runWithOracle(t, variant{v.name, v.prog, New(cfgOf(v))}, seed)
			if !oracle.HasRaces() {
				continue
			}
			if det.RaceCount() == 0 {
				t.Errorf("%s seed %d: missed the p.a race", v.name, seed)
				continue
			}
			for _, r := range det.Races() {
				if r.Field != "" && r.Field != "a" {
					t.Errorf("%s seed %d: reported non-racy field %q", v.name, seed, r.Field)
				}
			}
		}
	}
}

func ExampleDetector() {
	prog := bfj.MustParse(`
class Cell { field v; }
setup { c = new Cell; c.v = 0; }
thread { c.v = 1; }
thread { c.v = 2; }
`)
	big := analysis.New(prog, analysis.DefaultOptions()).Instrument()
	d := New(Config{Name: "BF", Footprints: true, Proxies: proxy.Analyze(big)})
	if _, err := interp.Run(big, d, interp.Options{Seed: 0}); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("races:", d.RaceCount())
	// Output: races: 1
}

// TestRefinedShadowRaceDetected covers the blocks-mode commit path: two
// threads write overlapping but not identical array ranges, so the
// shadow refines to blocks before the race is found (regression test
// for a bug where races found in refined representations were dropped).
func TestRefinedShadowRaceDetected(t *testing.T) {
	src := `
setup { a = newarray 100; }
thread { for (i = 0; i < 60; i = i + 1) { a[i] = 1; } }
thread { for (i = 40; i < 100; i = i + 1) { a[i] = 2; } }
`
	for _, v := range buildVariants(t, src) {
		missed := true
		for seed := int64(0); seed < 8; seed++ {
			det, oracle := runWithOracle(t, variant{v.name, v.prog, New(cfgOf(v))}, seed)
			if oracle.HasRaces() != (det.RaceCount() > 0) {
				t.Errorf("%s seed %d: oracle=%v detector=%v (%v)",
					v.name, seed, oracle.HasRaces(), det.RaceCount() > 0, det.SortedRaceDescs())
			}
			if oracle.HasRaces() && det.RaceCount() > 0 {
				missed = false
			}
		}
		if missed {
			t.Errorf("%s: overlap race never detected in 8 schedules", v.name)
		}
	}
}

// TestStridedShadowRaceDetected covers the strided-mode commit path.
func TestStridedShadowRaceDetected(t *testing.T) {
	src := `
setup { a = newarray 64; }
thread { for (i = 0; i < 64; i = i + 2) { a[i] = 1; } }
thread { for (i = 0; i < 64; i = i + 2) { a[i] = 2; } }
`
	for _, v := range buildVariants(t, src) {
		found := false
		for seed := int64(0); seed < 8 && !found; seed++ {
			det, oracle := runWithOracle(t, variant{v.name, v.prog, New(cfgOf(v))}, seed)
			if oracle.HasRaces() && det.RaceCount() > 0 {
				found = true
			}
			if oracle.HasRaces() && det.RaceCount() == 0 {
				t.Errorf("%s seed %d: strided race missed", v.name, seed)
			}
		}
	}
}

// TestPeriodicCommitBoundsDeferral: with PeriodicCommit set, a race in
// a long-running loop is reported even though the thread never reaches
// another synchronization operation (§3.3's mitigation for potentially
// non-terminating loops).
func TestPeriodicCommitBoundsDeferral(t *testing.T) {
	// Both threads hammer the same array slot inside loops with no sync
	// after their first checks; the only commits after that come from
	// the periodic policy.
	src := `
setup { a = newarray 8; }
thread { for (i = 0; i < 5000; i = i + 1) { a[i % 8] = i; } }
thread { for (i = 0; i < 5000; i = i + 1) { a[i % 8] = i; } }
`
	base := bfj.MustParse(src)
	big := analysis.New(base, analysis.DefaultOptions()).Instrument()
	prox := proxy.Analyze(big)
	d := New(Config{Name: "BF", Footprints: true, Proxies: prox, PeriodicCommit: 64})
	o := NewOracle()
	if _, err := interp.Run(big, trace.Tee(d, o), interp.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if o.HasRaces() && d.RaceCount() == 0 {
		t.Error("periodic commit should surface the in-loop race")
	}
	// And it must not introduce false alarms on a clean program.
	clean := bfj.MustParse(`
setup { a = newarray 64; }
thread { for (i = 0; i < 32; i = i + 1) { a[i] = i; } }
thread { for (i = 32; i < 64; i = i + 1) { a[i] = i; } }
`)
	bigC := analysis.New(clean, analysis.DefaultOptions()).Instrument()
	dc := New(Config{Name: "BF", Footprints: true, Proxies: proxy.Analyze(bigC), PeriodicCommit: 4})
	if _, err := interp.Run(bigC, dc, interp.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if dc.RaceCount() != 0 {
		t.Errorf("periodic commit caused false alarms: %v", dc.SortedRaceDescs())
	}
}

// TestPeriodicCommitDeterministicCounters pins the §3.3 mitigation as a
// usable configuration: on a workload whose only synchronization is
// thread start/end, every mid-loop commit comes from the periodic
// policy, races must still surface, and the cost counters the harness
// reports (shadow ops, footprint ops, sync ops, peak words, races) must
// be identical run over run so benchmark trajectories stay comparable.
func TestPeriodicCommitDeterministicCounters(t *testing.T) {
	// Two threads sweep overlapping halves of one array inside long
	// loops with no locking; the overlap [256,512) is racy.
	src := `
setup { a = newarray 768; }
thread { for (i = 0; i < 512; i = i + 1) { a[i] = i; } }
thread { for (i = 256; i < 768; i = i + 1) { a[i] = i; } }
`
	base := bfj.MustParse(src)
	big := analysis.New(base, analysis.DefaultOptions()).Instrument()
	prox := proxy.Analyze(big)

	runOnce := func(pc int, seed int64) (*Detector, *Oracle) {
		d := New(Config{Name: "BF", Footprints: true, Proxies: prox, PeriodicCommit: pc})
		o := NewOracle()
		if _, err := interp.Run(big, trace.Tee(d, o), interp.Options{Seed: seed}); err != nil {
			t.Fatal(err)
		}
		return d, o
	}

	const pc = 32
	var seed int64 = -1
	for s := int64(0); s < 8; s++ {
		if _, o := runOnce(pc, s); o.HasRaces() {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no schedule in 8 seeds exhibits the overlap race")
	}

	d1, o1 := runOnce(pc, seed)
	if o1.HasRaces() && d1.RaceCount() == 0 {
		t.Error("race missed with PeriodicCommit enabled")
	}
	if d1.Stats.FootprintOps == 0 || d1.Stats.ShadowOps == 0 {
		t.Errorf("periodic commits did no work: %+v", d1.Stats)
	}

	// Same seed, same config: every counter and race report identical.
	d2, _ := runOnce(pc, seed)
	if d1.Stats != d2.Stats {
		t.Errorf("counters drift across identical runs:\n%+v\n%+v", d1.Stats, d2.Stats)
	}
	if got, want := fmt.Sprint(d2.SortedRaceDescs()), fmt.Sprint(d1.SortedRaceDescs()); got != want {
		t.Errorf("race reports drift: %s vs %s", got, want)
	}

	// The mitigation must not change what is reported, only when it is
	// committed: the default (commit at sync only) finds the same races
	// on the same schedule.
	dOff, _ := runOnce(0, seed)
	if got, want := fmt.Sprint(dOff.SortedRaceDescs()), fmt.Sprint(d1.SortedRaceDescs()); got != want {
		t.Errorf("PeriodicCommit changed reported races: on=%s off=%s", want, got)
	}
}

// TestOverlappingRangeDedup pins the array-race dedup semantics
// documented on reportArrayRace: dedup keys on the EXACT committed
// range [lo..hi:step], so two overlapping-but-distinct committed ranges
// that both race yield two race records (not collapsed into one), while
// a later racy commit of an identical range is suppressed.
func TestOverlappingRangeDedup(t *testing.T) {
	d := New(Config{Name: "SS", Footprints: true})
	a := &interp.Array{ID: 7, Elems: make([]interp.Value, 8)}
	lk := &interp.Object{ID: 99, Class: &bfj.Class{Name: "Lk"}}
	d.Fork(0, 1)
	d.Fork(0, 2)
	d.Fork(0, 3)

	// T1 writes [0..8) and commits at thread end; first writer, no race.
	d.CheckRange(1, true, a, 0, 8, 1, nil)
	d.ThreadEnd(1)

	// T2 commits two overlapping subranges in separate sync epochs.
	// Both conflict with T1's writes (no happens-before edge), so each
	// commit races — under its own exact range key.
	d.CheckRange(2, true, a, 0, 4, 1, nil)
	d.Acquire(2, lk) // commit [0..4:1]
	d.CheckRange(2, true, a, 2, 6, 1, nil)
	d.Release(2, lk) // commit [2..6:1]; indices 4,5 still race with T1

	if got := d.RaceCount(); got != 2 {
		t.Fatalf("races = %d (%v), want 2 distinct overlapping ranges", got, d.SortedRaceDescs())
	}
	want := map[string]bool{"array#7[0..4:1]": true, "array#7[2..6:1]": true}
	for _, r := range d.Races() {
		if !want[r.Desc] {
			t.Errorf("unexpected race desc %q", r.Desc)
		}
		delete(want, r.Desc)
	}
	for desc := range want {
		t.Errorf("missing race record for range %s", desc)
	}

	// The two records overlap on [2..4) — the dedup deliberately did NOT
	// collapse them into one representative.
	rs := d.Races()
	if len(rs) == 2 {
		lo := max(rs[0].Lo, rs[1].Lo)
		hi := min(rs[0].Hi, rs[1].Hi)
		if lo >= hi {
			t.Errorf("test ranges do not overlap: %+v", rs)
		}
	}

	// An identical range committed racily again is deduplicated: T3
	// repeats [2..6:1] (racing with T2's writes) and no new record
	// appears.
	d.CheckRange(3, true, a, 2, 6, 1, nil)
	d.ThreadEnd(3)
	if got := d.RaceCount(); got != 2 {
		t.Errorf("races after identical re-commit = %d, want still 2 (%v)", got, d.SortedRaceDescs())
	}
}
