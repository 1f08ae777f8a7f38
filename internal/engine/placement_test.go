package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

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
// BF, a hash of the instrumented program text and the checks placed and
// check items the placement reports.
func placementLine(t *testing.T, name, src string) string {
	prog, err := bfj.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var b strings.Builder
	b.WriteString(name)
	for _, v := range []string{"FT", "RC", "BF"} {
		p := engine.InstrumentFor(prog, v)
		sum := sha256.Sum256([]byte(bfj.FormatProgram(p.Prog)))
		fmt.Fprintf(&b, " %s=%s:%d/%d", v, hex.EncodeToString(sum[:8]), p.Stats.ChecksPlaced, p.Stats.CheckItems)
	}
	return b.String()
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
	got := strings.Join(lines, "\n") + "\n"

	want, err := os.ReadFile("testdata/placement.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("golden has %d programs, computed %d", len(wantLines), len(lines))
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
