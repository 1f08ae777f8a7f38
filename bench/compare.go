package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json that -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// side is one results file's runs grouped by workload and metric.
type side struct {
	values            map[string]map[string][]float64 // workload → metric → one value per run
	attempted, failed map[string]int
}

func loadSide(path string) (*side, error) {
	var rf resultsFile
	if err := readJSONFile(path, &rf); err != nil {
		return nil, err
	}
	if rf.Version != resultsVersion {
		return nil, fmt.Errorf("%s: results version %d, want %d", path, rf.Version, resultsVersion)
	}
	s := &side{values: map[string]map[string][]float64{},
		attempted: map[string]int{}, failed: map[string]int{}}
	for _, run := range rf.Runs {
		if s.values[run.Workload] == nil {
			s.values[run.Workload] = map[string][]float64{}
		}
		for name, m := range run.Metrics {
			s.values[run.Workload][name] = append(s.values[run.Workload][name], m.Value)
		}
		s.attempted[run.Workload] += run.Attempted
		s.failed[run.Workload] += run.Failed
	}
	return s, nil
}

// verdict judges B against A for one metric.  The change is "worse" or
// "better" when the medians differ by more than the bound; "within"
// when they do not; and "unresolved" when either side's quartile
// spread exceeds the bound, unless every B run beats (or loses to)
// every A run.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (delta float64, v string) {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	delta = (mb - ma) / ma
	worse := delta
	if higherIsBetter {
		worse = -delta
	}
	spread := math.Max((qa3-qa1)/ma, (qb3-qb1)/mb)
	switch {
	case spread > bound:
		if all(a, b, higherIsBetter) {
			return delta, "better"
		}
		if all(b, a, higherIsBetter) {
			return delta, "worse"
		}
		return delta, "unresolved"
	case worse > bound:
		return delta, "worse"
	case worse < -bound:
		return delta, "better"
	}
	return delta, "within"
}

// all reports whether every value in hi beats every value in lo.
func all(lo, hi []float64, higherIsBetter bool) bool {
	for _, l := range lo {
		for _, h := range hi {
			if (higherIsBetter && h <= l) || (!higherIsBetter && h >= l) {
				return false
			}
		}
	}
	return true
}

func describe(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", m, q1, q3, len(xs))
}

// compareFiles prints, per (workload, metric), each side's median and
// quartiles, the relative delta and a verdict against BENCHMARK.json's
// bound; per-layer metrics get no verdict.  It reports whether any
// end-to-end metric got worse or any B op failed.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	var spec benchmarkSpec
	if err := readJSONFile(benchPath, &spec); err != nil {
		return false, err
	}
	a, err := loadSide(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadSide(bPath)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "%-13s %-32s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound", "verdict")
	for _, wl := range workloadNames {
		va, vb := a.values[wl], b.values[wl]
		if va == nil || vb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			xa, xb := va[m.Name], vb[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			delta, v := verdict(xa, xb, m.Better == "higher", m.Bound)
			if v == "worse" {
				bad = true
			}
			fmt.Fprintf(w, "%-13s %-32s %-34s %-34s %+7.1f%% %5.0f%%  %s\n", wl, m.Name, describe(xa), describe(xb), 100*delta, 100*m.Bound, v)
		}
		fmt.Fprintf(w, "%-13s %-32s %-34s %-34s\n", wl, "error_frac",
			fmt.Sprintf("%d/%d", a.failed[wl], a.attempted[wl]), fmt.Sprintf("%d/%d", b.failed[wl], b.attempted[wl]))
		if b.failed[wl] > 0 {
			bad = true
		}
		for _, m := range spec.PerLayer {
			xa, xb := va[m.Name], vb[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			fmt.Fprintf(w, "%-13s %-32s %-34s %-34s %+7.1f%%\n", wl, m.Name, describe(xa), describe(xb), 100*ratio(mb-ma, math.Abs(ma)))
		}
	}
	return bad, nil
}
