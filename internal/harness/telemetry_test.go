package harness

import (
	"testing"

	"bigfoot/internal/engine"
	"bigfoot/internal/metrics"
	"bigfoot/internal/workloads"
)

// runProgramsOn is runPrograms with an explicit Runner, so tests can
// inject a metered engine.
func runProgramsOn(t *testing.T, r *Runner, names ...string) *Report {
	t.Helper()
	var rs []*ProgramResult
	for _, name := range names {
		w, ok := workloads.ByName(name, r.Opts.Scale)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		pr, err := r.RunProgram(w)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, pr)
	}
	return NewReport(r.Opts, rs)
}

// TestMetricsNeutralSignature is the telemetry acceptance criterion at
// the harness level: running the evaluation through a metered engine
// changes no deterministic result — the Signature is byte-identical to
// an unmetered run — while the registry really does record the runs.
func TestMetricsNeutralSignature(t *testing.T) {
	opts := Options{Scale: workloads.Scale{N: 1, T: 2}, Seed: 7, Trials: 1}
	bare := runPrograms(t, opts, "crypt", "tomcat")

	reg := metrics.NewRegistry()
	metered := runProgramsOn(t, &Runner{
		Opts:   opts,
		Engine: engine.New(engine.Options{Metrics: reg}),
	}, "crypt", "tomcat")

	if got, want := metered.Signature(), bare.Signature(); got != want {
		t.Errorf("metered signature differs from bare:\nbare:\n%s\nmetered:\n%s", want, got)
	}

	// The neutrality must not be vacuous: the registry saw the traffic.
	var runs float64
	for _, f := range reg.Snapshot() {
		if f.Name == "bigfoot_engine_runs_total" {
			for _, s := range f.Series {
				runs += s.Value
			}
		}
	}
	// 2 programs x (base + 5 detectors), one trial each.
	if runs != 12 {
		t.Errorf("registry recorded %v runs, want 12", runs)
	}
}
