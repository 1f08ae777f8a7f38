package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bigfoot/internal/workloads"
)

// runPrograms executes the named workloads under opts and assembles a
// Report, mirroring what RunReport does for the full catalog.
func runPrograms(t *testing.T, opts Options, names ...string) *Report {
	t.Helper()
	r := &Runner{Opts: opts}
	var rs []*ProgramResult
	for _, name := range names {
		w, ok := workloads.ByName(name, opts.Scale)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		pr, err := r.RunProgram(w)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, pr)
	}
	return NewReport(opts, rs)
}

// TestReplayDirSignatureMatchesLive is the end-to-end determinism
// claim: record a live run's traces, replay them offline, and the
// replayed Report's Signature is byte-identical — for multiple seeds.
func TestReplayDirSignatureMatchesLive(t *testing.T) {
	scale := workloads.Scale{N: 1, T: 2}
	for _, seed := range []int64{7, 11} {
		dir := t.TempDir()
		opts := Options{Scale: scale, Seed: seed, Trials: 1, TraceDir: dir}
		live := runPrograms(t, opts, "crypt", "tomcat")

		// Two programs × (base + five detectors) = 12 trace files.
		files, err := filepath.Glob(filepath.Join(dir, "*"+TraceExt))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 12 {
			t.Fatalf("seed %d: recorded %d traces, want 12: %v", seed, len(files), files)
		}

		replayed, err := ReplayDir(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := replayed.Signature(), live.Signature(); got != want {
			t.Errorf("seed %d: replayed signature differs from live:\nlive:\n%s\nreplayed:\n%s", seed, want, got)
		}
		// Replay throughput is measured (offline analysis runs at some
		// positive events/sec) but never part of the signature.
		for _, pr := range replayed.Programs {
			for _, dr := range pr.Detectors {
				if dr.EventsPerSec <= 0 {
					t.Errorf("seed %d: %s/%s events/sec = %v, want > 0", seed, pr.Name, dr.Name, dr.EventsPerSec)
				}
			}
		}
	}
}

// TestReplayDirMissingBase: a trace directory without the base trace
// cannot supply overhead denominators and must fail with a pointer to
// the fix.
func TestReplayDirMissingBase(t *testing.T) {
	scale := workloads.Scale{N: 1, T: 2}
	dir := t.TempDir()
	opts := Options{Scale: scale, Seed: 3, Trials: 1, TraceDir: dir}
	runPrograms(t, opts, "crypt")
	base := filepath.Join(dir, "crypt."+"base"+TraceExt)
	if err := os.Remove(base); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayDir(dir, opts); err == nil || !strings.Contains(err.Error(), "base trace") {
		t.Errorf("err = %v, want missing-base-trace error", err)
	}
}
