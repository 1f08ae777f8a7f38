package engine_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfgen"
	"bigfoot/internal/bfj"
	"bigfoot/internal/engine"
	"bigfoot/internal/workloads"
)

// placementCorpus is how many bfgen programs, drawn in order from seed 1
// with the default configuration, the golden file covers after the 19
// evaluation workloads: the benchmark's build-cold program set.
const placementCorpus = 381

// placementLine renders one program's static placements: for FT, RC and
// BF, the placementHash of the instrumented program and the checks
// placed and check items the placement reports.
func placementLine(t *testing.T, name, src string) string {
	prog, err := bfj.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var b strings.Builder
	b.WriteString(name)
	for _, v := range []string{"FT", "RC", "BF"} {
		p := engine.InstrumentFor(prog, v)
		fmt.Fprintf(&b, " %s=%s:%d/%d", v, placementHash(p.Prog), p.Stats.ChecksPlaced, p.Stats.CheckItems)
	}
	return b.String()
}

// placementHash hashes an instrumented program: its text, then the
// source positions each check item of its methods and threads cites, in
// program order.  The text prints no positions, so without them a change
// that moved the access sites a check cites would pass.
func placementHash(p *bfj.Program) string {
	h := sha256.New()
	io.WriteString(h, bfj.FormatProgram(p))
	var walk func(*bfj.Block)
	walk = func(b *bfj.Block) {
		for _, s := range b.Stmts {
			switch x := s.(type) {
			case *bfj.Check:
				for _, it := range x.Items {
					fmt.Fprintln(h, bfj.FormatPositions(it.Positions))
				}
			case *bfj.If:
				walk(x.Then)
				walk(x.Else)
			case *bfj.Loop:
				walk(x.Pre)
				walk(x.Post)
			}
		}
	}
	for _, m := range p.Methods() {
		walk(m.Body)
	}
	for _, t := range p.Threads {
		walk(t)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestPlacementGolden pins the FT, RC and BF placements of every program
// the build-cold benchmark builds, byte for byte, across commits: a
// change to the analysis that moves one check, or one bound of a placed
// range, fails here.  On a mismatch the test writes the lines it
// computed to a temporary file and names it.
func TestPlacementGolden(t *testing.T) {
	var lines []string
	for _, w := range workloads.All(workloads.DefaultScale()) {
		lines = append(lines, placementLine(t, w.Name, w.Source))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < placementCorpus; i++ {
		src := bfgen.Generate(rng, bfgen.DefaultConfig()).Source
		lines = append(lines, placementLine(t, fmt.Sprintf("bfgen-%d", i), src))
	}
	comparePlacementGolden(t, "testdata/placement.golden", lines)
}

// comparePlacementGolden compares the computed placement lines with the
// golden file, reporting the first differing lines and writing the
// computed lines to a temporary file on a mismatch.
func comparePlacementGolden(t *testing.T, golden string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("%s has %d programs, computed %d", golden, len(wantLines), len(lines))
	}
	bad := 0
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("placement differs:\n got %s\nwant %s", lines[i], wantLines[i])
			}
		}
	}
	if f, err := os.CreateTemp("", "placement-*.golden"); err == nil {
		f.WriteString(got)
		f.Close()
		t.Errorf("%d programs differ; computed placements written to %s", bad, f.Name())
	}
}

// bfPlacementLine renders one program's BF placement under opts: the
// placementHash of the instrumented program and the checks placed and
// check items the analysis reports.
func bfPlacementLine(t *testing.T, name, src string, opts analysis.Options) string {
	prog, err := bfj.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	an := analysis.New(prog, opts)
	return fmt.Sprintf("%s BF=%s:%d/%d", name, placementHash(an.Instrument()), an.Stats.ChecksPlaced, an.Stats.CheckItems)
}

// TestPlacementGoldenExtended pins, byte for byte, the placements that
// loop-invariant refinement decides beyond build-cold's programs:
// bfgen.LoopNest's nests, whose refinement re-analyzes inner loops most
// (indexed by the loop-independent id at depths 1-8, and by the
// outermost plus the innermost induction variable at depths 1-6), under
// the default analysis and each ablation; the 19 workloads at a larger
// scale; and the 19 workloads under each ablation.  Like
// TestPlacementGolden it names a temporary file holding the computed
// lines on a mismatch.
func TestPlacementGoldenExtended(t *testing.T) {
	ablations := []struct {
		name string
		opts analysis.Options
	}{
		{"NoCoalescing", analysis.Options{NoCoalescing: true}},
		{"NoAnticipation", analysis.Options{NoAnticipation: true}},
		{"NoLoopInvariants", analysis.Options{NoLoopInvariants: true}},
	}
	var lines []string
	var nests [][2]string
	for d := 1; d <= 8; d++ {
		nests = append(nests, [2]string{fmt.Sprintf("nest-%d", d), bfgen.LoopNest(d, "id")})
	}
	for d := 1; d <= 6; d++ {
		nests = append(nests, [2]string{fmt.Sprintf("nest-mixed-%d", d), bfgen.LoopNest(d, fmt.Sprintf("i1 + i%d", d))})
	}
	for _, n := range nests {
		lines = append(lines, placementLine(t, n[0], n[1]))
		for _, ab := range ablations {
			lines = append(lines, bfPlacementLine(t, n[0]+"/"+ab.name, n[1], ab.opts))
		}
	}
	for _, w := range workloads.All(workloads.Scale{N: 3, T: 4}) {
		lines = append(lines, placementLine(t, w.Name+"@N3", w.Source))
	}
	for _, w := range workloads.All(workloads.DefaultScale()) {
		for _, ab := range ablations {
			lines = append(lines, bfPlacementLine(t, w.Name+"/"+ab.name, w.Source, ab.opts))
		}
	}
	comparePlacementGolden(t, "testdata/placement_extended.golden", lines)
}

// TestLoopNestPlacementsRun runs bfgen.LoopNest's nests whose index
// mixes an outer and the innermost induction variable under FT and BF.
// A loop invariant whose range mentions a variable the loop assigns
// would let BF place a check before that variable's first assignment;
// the instrumented program then fails with "read of unassigned
// variable" where FT runs clean.  Each nest has one thread, so neither
// detector may report a race.
func TestLoopNestPlacementsRun(t *testing.T) {
	nests := [][2]string{{"nest-3/i3+id", bfgen.LoopNest(3, "i3 + id")}}
	for d := 1; d <= 6; d++ {
		nests = append(nests, [2]string{fmt.Sprintf("nest-mixed-%d", d), bfgen.LoopNest(d, fmt.Sprintf("i1 + i%d", d))})
	}
	e := engine.New(engine.Options{})
	for _, n := range nests {
		name := n[0]
		art, _, err := e.BuildSource(n[1], engine.BuildSpec{Variants: []string{"FT", "BF"}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range art.Variants {
			out, err := e.Run(context.Background(), v, engine.RunSpec{Seed: 1})
			if err != nil {
				t.Errorf("%s under %s: %v", name, v.Name, err)
				continue
			}
			if len(out.Races) != 0 {
				t.Errorf("%s under %s: %d races in a one-thread program", name, v.Name, len(out.Races))
			}
		}
	}
}
