package bigfoot_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"bigfoot/internal/harness"
	"bigfoot/internal/workloads"
)

// TestSignatureGolden pins every deterministic counter of the evaluation
// across commits: the report signature of `bfbench -q -trials 1
// -signature` (19 workloads × base and five detectors, scale 1, four
// threads, seed 42) against testdata/signature.golden.  Steps, accesses,
// checks, shadow, footprint and sync operations, peak words, modeled
// overheads and races all render there, so an interpreter or detector
// change that must not move a counter has to pass it unchanged.  On a
// mismatch the test writes the text it computed to a temporary file and
// names it.
func TestSignatureGolden(t *testing.T) {
	r := &harness.Runner{Opts: harness.Options{
		Scale:  workloads.Scale{N: 1, T: 4},
		Seed:   42,
		Trials: 1,
	}}
	rep, err := r.RunReport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Signature()

	want, err := os.ReadFile("testdata/signature.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("golden has %d lines, computed %d", len(wantLines), len(gotLines))
	}
	bad := 0
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("signature differs:\n got %s\nwant %s", gotLines[i], wantLines[i])
			}
		}
	}
	if f, err := os.CreateTemp("", "signature-*.golden"); err == nil {
		f.WriteString(got)
		f.Close()
		t.Errorf("%d lines differ; computed signature written to %s", bad, f.Name())
	}
}
