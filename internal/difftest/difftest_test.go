package difftest

import (
	"math/rand"
	"strings"
	"testing"

	"bigfoot/internal/bfgen"
	"bigfoot/internal/bfj"
	"bigfoot/internal/detector"
	"bigfoot/internal/engine"
	"bigfoot/internal/interp"
)

// shrinkRepro shrinks src, a program that fails as dis says, to a
// minimal repro.  A detector disagreement shrinks with respect to "the
// same detector disagrees the same way".  A metamorphic failure means
// the oracle saw a race in a variant that is race-free by construction,
// so src is that variant and it shrinks with respect to that oracle
// race.
func shrinkRepro(src string, dis *Disagreement) string {
	if strings.HasPrefix(dis.Kind, "metamorphic-") {
		return Shrink(src, func(cand string) bool {
			prog, err := bfj.Parse(cand)
			if err != nil {
				return false
			}
			o := detector.NewOracle()
			_, err = interp.Run(prog, o, interp.Options{Seed: dis.Seed, MaxSteps: shrinkMaxSteps})
			return err == nil && o.HasRaces()
		})
	}
	return Shrink(src, func(cand string) bool {
		d, err := CheckSource(cand, Options{Seeds: []int64{dis.Seed}, MaxSteps: shrinkMaxSteps})
		return err == nil && d != nil && d.Detector == dis.Detector && d.Kind == dis.Kind
	})
}

// logRepro logs everything needed to reproduce a disagreement on g from
// the test output alone: the disagreement, the failing program (for a
// metamorphic failure, the transformed variant the oracle found racy)
// and the interpreter seed, plus a shrunk minimal repro.
func logRepro(t *testing.T, g *bfgen.Program, dis *Disagreement) {
	t.Helper()
	src := g.Source
	switch dis.Kind {
	case "metamorphic-locked":
		src = g.Locked()
	case "metamorphic-serialized":
		src = g.Serialized()
	}
	t.Errorf("disagreement: %s\ninterpreter seed: %d\nprogram:\n%s\nshrunk repro (commit under testdata/regress/):\n%s",
		dis, dis.Seed, src, shrinkRepro(src, dis))
}

// TestDeterministicSweep is the bounded differential sweep run in plain
// `go test` and CI: ≥700 generated (program, seed) pairs, each checked
// across all five detectors against the oracle with the fast paths on
// and off, plus the metamorphic oracles on every generated program.
func TestDeterministicSweep(t *testing.T) {
	nProgs, nSeeds := 140, 5
	if testing.Short() {
		nProgs, nSeeds = 8, 3
	}
	rng := rand.New(rand.NewSource(20260805))
	pairs := 0
	for p := 0; p < nProgs; p++ {
		g := bfgen.Generate(rng, bfgen.DefaultConfig())
		seeds := make([]int64, nSeeds)
		for i := range seeds {
			seeds[i] = int64(i)
		}
		// CompareFastPaths re-runs every pair with the fast paths toggled
		// and asserts observational equality, so the sweep also proves the
		// SmartTrack-style fast paths neutral on every generated program.
		dis, err := CheckGenerated(g, Options{Seeds: seeds, CompareFastPaths: true})
		if err != nil {
			t.Fatalf("program %d: %v\n%s", p, err, g.Source)
		}
		if dis == nil {
			dis, err = CheckMetamorphic(g, Options{Seeds: []int64{0, 1}})
			if err != nil {
				t.Fatalf("program %d: %v\n%s", p, err, g.Source)
			}
		}
		if dis != nil {
			t.Logf("program %d", p)
			logRepro(t, g, dis)
			return
		}
		pairs += nSeeds
	}
	if !testing.Short() && pairs < 700 {
		t.Fatalf("sweep covered %d (program, seed) pairs, want >= 700", pairs)
	}
	t.Logf("%d (program, seed) pairs across %d detectors, zero disagreements", pairs, len(engine.VariantNames))
}

// FuzzDifferential is the native fuzzing entry: each input picks a
// generator seed and a scheduler seed; the body checks all five
// detectors against the oracle plus the metamorphic oracles, and logs a
// shrunk repro on any disagreement.
func FuzzDifferential(f *testing.F) {
	for gs := int64(0); gs < 8; gs++ {
		f.Add(gs, gs%4)
	}
	f.Fuzz(func(t *testing.T, genSeed, schedSeed int64) {
		g := bfgen.New(genSeed)
		seeds := []int64{schedSeed, schedSeed + 1}
		dis, err := CheckGenerated(g, Options{Seeds: seeds, CompareFastPaths: true})
		if err != nil {
			t.Fatalf("generator seed %d: %v\n%s", genSeed, err, g.Source)
		}
		if dis == nil {
			dis, err = CheckMetamorphic(g, Options{Seeds: []int64{schedSeed}})
			if err != nil {
				t.Fatalf("generator seed %d: %v\n%s", genSeed, err, g.Source)
			}
		}
		if dis != nil {
			t.Logf("generator seed %d", genSeed)
			logRepro(t, g, dis)
		}
	})
}

// TestVariantsShareSyncStructure pins the harness assumption behind the
// cross-detector counter invariants: instrumentation only adds checks,
// so every variant of a schedule-insensitive program observes identical
// access and sync counts (enforced inside CheckGenerated, exercised
// here on a program from the insensitive grammar).
func TestVariantsShareSyncStructure(t *testing.T) {
	cfg := bfgen.DefaultConfig()
	cfg.NoVolatiles = true
	rng := rand.New(rand.NewSource(11))
	for p := 0; p < 10; p++ {
		g := bfgen.Generate(rng, cfg)
		if g.ScheduleSensitive {
			t.Fatalf("NoVolatiles program marked sensitive")
		}
		dis, err := CheckGenerated(g, Options{Seeds: []int64{0, 3}})
		if err != nil {
			t.Fatalf("program %d: %v\n%s", p, err, g.Source)
		}
		if dis != nil {
			logRepro(t, g, dis)
			return
		}
	}
}

// dropFieldChecks returns a Fault that makes variant's detector lose
// every CheckField event, simulating a dropped check.
func dropFieldChecks(variant string) func(string, interp.Hook) interp.Hook {
	return func(name string, d interp.Hook) interp.Hook {
		if name != variant {
			return d
		}
		return fieldCheckDropper{d}
	}
}

// fieldCheckDropper forwards every event but CheckField.
type fieldCheckDropper struct{ interp.Hook }

func (fieldCheckDropper) CheckField(int, bool, *interp.Object, *interp.FieldCheck) {}

// TestFaultInjectionIsCaught: a detector that drops field checks must
// disagree with the oracle on a program with a field race.
func TestFaultInjectionIsCaught(t *testing.T) {
	const racy = `
class Cell { field v; }
setup { c = new Cell; }
thread { x = c.v; c.v = x + 1; }
thread { y = c.v; c.v = y + 1; }
`
	found := false
	for seed := int64(0); seed < 8 && !found; seed++ {
		dis, err := CheckSource(racy, Options{Seeds: []int64{seed}, Fault: dropFieldChecks("FT")})
		if err != nil {
			t.Fatal(err)
		}
		if dis != nil {
			if dis.Detector != "FT" || dis.Kind != "trace" {
				t.Fatalf("unexpected disagreement: %s", dis)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no schedule exposed the dropped checks in 8 seeds")
	}
}
