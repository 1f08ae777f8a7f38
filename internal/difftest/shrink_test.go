package difftest

import (
	"strings"
	"testing"

	"bigfoot/internal/bfgen"
	"bigfoot/internal/bfj"
	"bigfoot/internal/detector"
	"bigfoot/internal/interp"
)

// shrinkMaxSteps bounds candidate executions inside shrink predicates:
// statement deletion routinely produces unbounded loops (e.g. a loop
// whose increment was removed), and an unbounded candidate would
// otherwise burn the interpreter's 500M-step default before being
// rejected.  Generated programs finish in a few thousand steps.
const shrinkMaxSteps = 500_000

// countStmts counts statements recursively (compound bodies included).
func countStmts(b *bfj.Block) int {
	n := 0
	for _, s := range b.Stmts {
		n++
		switch x := s.(type) {
		case *bfj.If:
			n += countStmts(x.Then) + countStmts(x.Else)
		case *bfj.Loop:
			n += countStmts(x.Pre) + countStmts(x.Post)
		}
	}
	return n
}

func totalStmts(src string, t *testing.T) int {
	t.Helper()
	prog, err := bfj.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	n := countStmts(prog.Setup)
	for _, th := range prog.Threads {
		n += countStmts(th)
	}
	for _, m := range prog.Methods() {
		n += countStmts(m.Body)
	}
	return n
}

// TestShrinkerCatchesBrokenDetector is the acceptance-criterion test:
// inject a fault (FT drops every field check), let the differential
// sweep catch it on a generated program, and shrink the failure to a
// minimal repro that still distinguishes the broken detector from the
// fixed one.
func TestShrinkerCatchesBrokenDetector(t *testing.T) {
	fault := func(name string, cfg *detector.Config) {
		if name == "FT" {
			cfg.TestDropFieldChecks = true
		}
	}
	brokenFails := func(src string) bool {
		dis, err := CheckSource(src, Options{Seeds: []int64{0, 1, 2}, Fault: fault, MaxSteps: shrinkMaxSteps})
		return err == nil && dis != nil && dis.Detector == "FT" && dis.Kind == "trace"
	}

	// The sweep must catch the fault on some generated program: any
	// program with a field race observed by the oracle exposes it.
	var caught *bfgen.Program
	for seed := int64(0); seed < 50 && caught == nil; seed++ {
		g := bfgen.New(seed)
		if brokenFails(g.Source) {
			caught = g
		}
	}
	if caught == nil {
		t.Fatal("differential sweep failed to catch the broken detector on 50 generated programs")
	}

	min := Shrink(caught.Source, brokenFails)
	if !brokenFails(min) {
		t.Fatalf("shrunk repro no longer fails:\n%s", min)
	}
	before, after := totalStmts(caught.Source, t), totalStmts(min, t)
	if after >= before {
		t.Errorf("shrinker made no progress: %d -> %d statements", before, after)
	}
	// A minimal field-race repro needs only a handful of statements: one
	// allocation plus one access in each of two threads (the generator's
	// fixed prelude shrinks away too).
	if after > 12 {
		t.Errorf("shrunk repro still has %d statements (want <= 12):\n%s", after, min)
	}
	// The repro isolates the injected fault: with healthy detectors the
	// same program shows no disagreement.
	if dis, err := CheckSource(min, Options{Seeds: []int64{0, 1, 2}}); err != nil || dis != nil {
		t.Errorf("shrunk repro disagrees even without the fault (err=%v dis=%v):\n%s", err, dis, min)
	}
	t.Logf("shrunk %d -> %d statements:\n%s", before, after, min)
}

// TestShrinkRacyProgramToMinimal shrinks a generated program with
// respect to "the oracle sees a race" — the predicate used to distill
// regression corpus entries.
func TestShrinkRacyProgramToMinimal(t *testing.T) {
	racyPred := func(src string) bool {
		prog, err := bfj.Parse(src)
		if err != nil {
			return false
		}
		for seed := int64(0); seed < 3; seed++ {
			o := detector.NewOracle()
			if _, err := interp.Run(prog, o, interp.Options{Seed: seed, MaxSteps: shrinkMaxSteps}); err != nil {
				return false
			}
			if o.HasRaces() {
				return true
			}
		}
		return false
	}
	var racy *bfgen.Program
	for seed := int64(0); seed < 50 && racy == nil; seed++ {
		g := bfgen.New(seed)
		if racyPred(g.Source) {
			racy = g
		}
	}
	if racy == nil {
		t.Fatal("no racy program in 50 generator seeds")
	}
	min := Shrink(racy.Source, racyPred)
	if !racyPred(min) {
		t.Fatalf("shrunk program lost the race:\n%s", min)
	}
	if got, orig := len(min), len(racy.Source); got >= orig {
		t.Errorf("no shrinkage: %d -> %d bytes", orig, got)
	}
	t.Logf("racy repro (%d statements):\n%s", totalStmts(min, t), min)
}

// TestShrinkReproMetamorphic: a metamorphic failure shrinks with
// respect to the oracle race in the transformed program.  The program
// here is racy and every detector agrees with the oracle on it, so a
// detector-disagreement predicate would keep it whole; under a
// synthetic metamorphic-locked disagreement, shrinkRepro must return a
// smaller program that the oracle still finds racy on that schedule.
func TestShrinkReproMetamorphic(t *testing.T) {
	const seed = 0
	oracleRacy := func(src string) bool {
		prog, err := bfj.Parse(src)
		if err != nil {
			return false
		}
		o := detector.NewOracle()
		_, err = interp.Run(prog, o, interp.Options{Seed: seed, MaxSteps: shrinkMaxSteps})
		return err == nil && o.HasRaces()
	}
	var src string
	for gs := int64(0); gs < 50 && src == ""; gs++ {
		if g := bfgen.New(gs); oracleRacy(g.Source) {
			src = g.Source
		}
	}
	if src == "" {
		t.Fatal("no racy program in 50 generator seeds")
	}
	dis := &Disagreement{Detector: "oracle", Seed: seed, Kind: "metamorphic-locked", Detail: "synthetic"}
	min := shrinkRepro(src, dis)
	if !oracleRacy(min) {
		t.Fatalf("shrunk repro lost the oracle race:\n%s", min)
	}
	if before, after := totalStmts(src, t), totalStmts(min, t); after >= before {
		t.Errorf("metamorphic repro not shrunk: %d -> %d statements", before, after)
	}
}

// TestShrinkReturnsOriginalWhenPredicateFails: Shrink must not touch a
// program that does not exhibit the failure.
func TestShrinkReturnsOriginalWhenPredicateFails(t *testing.T) {
	src := bfgen.New(1).Source
	if got := Shrink(src, func(string) bool { return false }); got != src {
		t.Error("Shrink modified a non-failing program")
	}
}

// TestShrinkHandlesUnparsableInput: a failing input that does not parse
// is returned unchanged rather than crashing the shrinker.
func TestShrinkHandlesUnparsableInput(t *testing.T) {
	src := "not a bfj program {"
	if got := Shrink(src, func(string) bool { return true }); got != src {
		t.Error("Shrink modified unparsable input")
	}
}

// TestShrinkUnwrapsCompounds: the shrinker can pull a racy access out
// of a loop and an if, discarding the wrappers.
func TestShrinkUnwrapsCompounds(t *testing.T) {
	const src = `
class Cell { field v; }
setup { c = new Cell; }
thread {
  for (i = 0; i < 3; i = i + 1) {
    if (1 > 0) { c.v = i; } else { x = 0; }
  }
}
thread { c.v = 9; }
`
	pred := func(cand string) bool {
		prog, err := bfj.Parse(cand)
		if err != nil {
			return false
		}
		for seed := int64(0); seed < 4; seed++ {
			o := detector.NewOracle()
			if _, err := interp.Run(prog, o, interp.Options{Seed: seed, MaxSteps: shrinkMaxSteps}); err != nil {
				return false
			}
			if o.HasRaces() {
				return true
			}
		}
		return false
	}
	if !pred(src) {
		t.Skip("no schedule exposed the race (unexpected)")
	}
	min := Shrink(src, pred)
	if strings.Contains(min, "for (") || strings.Contains(min, "if (") {
		t.Errorf("compounds not unwrapped:\n%s", min)
	}
}
