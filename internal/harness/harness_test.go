package harness

import (
	"math"
	"strings"
	"testing"

	"bigfoot/internal/workloads"
)

func runTwo(t *testing.T) []*ProgramResult {
	t.Helper()
	r := &Runner{Opts: Options{Scale: workloads.Scale{N: 1, T: 2}, Seed: 7, Trials: 1}}
	var out []*ProgramResult
	for _, name := range []string{"crypt", "tomcat"} {
		w, ok := workloads.ByName(name, r.Opts.Scale)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		pr, err := r.RunProgram(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pr)
	}
	return out
}

func TestRunProgramInvariants(t *testing.T) {
	for _, pr := range runTwo(t) {
		if pr.Accesses == 0 || pr.BaseWords == 0 {
			t.Errorf("%s: empty base counters: %+v", pr.Name, pr)
		}
		ft := pr.Detectors["FT"]
		bf := pr.Detectors["BF"]
		if ft == nil || bf == nil {
			t.Fatalf("%s: missing detectors", pr.Name)
		}
		if ft.CheckRatio < 0.999 || ft.CheckRatio > 1.001 {
			t.Errorf("%s: FT check ratio = %f, want 1", pr.Name, ft.CheckRatio)
		}
		if bf.CheckRatio >= ft.CheckRatio {
			t.Errorf("%s: BF ratio %f not below FT %f", pr.Name, bf.CheckRatio, ft.CheckRatio)
		}
		if bf.Overhead >= ft.Overhead {
			t.Errorf("%s: BF modeled overhead %f not below FT %f", pr.Name, bf.Overhead, ft.Overhead)
		}
		for _, d := range pr.Detectors {
			if d.Races != 0 {
				t.Errorf("%s/%s: benchmark workloads must be race free, got %d races",
					pr.Name, d.Name, d.Races)
			}
		}
		// Figure 8 split sums to the detector's executed checks ratio.
		sum := ratio(pr.BFFieldChecks+pr.BFArrayChecks, pr.Accesses)
		if diff := sum - bf.CheckRatio; diff > 0.001 || diff < -0.001 {
			t.Errorf("%s: field+array split %f != ratio %f", pr.Name, sum, bf.CheckRatio)
		}
	}
}

func TestReportsRenderAllPrograms(t *testing.T) {
	rep := &Report{Programs: runTwo(t)}
	for _, render := range []func() string{rep.Figure2, rep.Figure8, rep.Table1, rep.Table1Wall, rep.Table2, rep.Summary} {
		text := render()
		for _, pr := range rep.Programs {
			if !strings.Contains(text, pr.Name) && !strings.Contains(text, "Detector") {
				t.Errorf("report missing %s:\n%s", pr.Name, text)
			}
		}
		if strings.Contains(text, "%!") {
			t.Errorf("formatting directive leaked:\n%s", text)
		}
	}
}

func TestGeoMeanAndMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Errorf("GeoMean(1,4) = %f", g)
	}
	if m := Mean([]float64{1, 3}); m != 2 {
		t.Errorf("Mean(1,3) = %f", m)
	}
	// Empty aggregates return the NaN sentinel: the old silent 0 read as
	// "no overhead" when nothing at all had been aggregated.
	if !math.IsNaN(GeoMean(nil)) || !math.IsNaN(Mean(nil)) {
		t.Error("empty aggregates must be NaN")
	}
	// The clamp floor is explicit and pinned: entries below GeoMeanFloor
	// contribute exactly GeoMeanFloor, so the maximum upward bias is
	// known (a near-zero overhead reads as 1e-3, never less).
	if g, want := GeoMean([]float64{0, 1}), math.Sqrt(GeoMeanFloor); math.Abs(g-want) > 1e-12 {
		t.Errorf("clamped geomean = %g, want sqrt(floor) = %g", g, want)
	}
	if g := GeoMean([]float64{-5}); math.Abs(g-GeoMeanFloor) > 1e-12 {
		t.Errorf("negative entry must clamp to the floor, got %g", g)
	}
	if g := GeoMean([]float64{GeoMeanFloor}); math.Abs(g-GeoMeanFloor) > 1e-12 {
		t.Errorf("floor entry must pass through, got %g", g)
	}
}

func TestRatioAndRelOverheadEdgeCases(t *testing.T) {
	if r := ratio(10, 0); r != 0 {
		t.Errorf("ratio over zero base = %f, want 0", r)
	}
	if r := ratio(3, 4); r != 0.75 {
		t.Errorf("ratio(3,4) = %f", r)
	}
	if r := relOverhead(2, 4); r != 0.5 {
		t.Errorf("relOverhead(2,4) = %f", r)
	}
	// A negligible FT overhead (below the floor) makes the quotient
	// meaningless; relOverhead reports parity instead of a blow-up.
	if r := relOverhead(2, GeoMeanFloor/2); r != 1 {
		t.Errorf("relOverhead with tiny denominator = %f, want 1", r)
	}
	// Negative numerators (timing jitter on wall overheads) clamp to 0.
	if r := relOverhead(-0.5, 2); r != 0 {
		t.Errorf("relOverhead with negative numerator = %f, want 0", r)
	}
}

func TestModelOverheadFormula(t *testing.T) {
	// 100 checks, 100 shadow ops, 0 footprint, 0 sync over 1000 steps:
	// (100*3 + 100*15) / 1000 = 1.8.
	got := modelOverhead(100, 100, 0, 0, 1000)
	if got < 1.79 || got > 1.81 {
		t.Errorf("modelOverhead = %f", got)
	}
	if modelOverhead(1, 1, 1, 1, 0) != 0 {
		t.Error("zero base steps must not divide")
	}
}
