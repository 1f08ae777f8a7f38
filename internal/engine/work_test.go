package engine_test

import (
	"testing"

	"bigfoot/internal/bfj"
	"bigfoot/internal/engine"
	"bigfoot/internal/workloads"
)

// TestAnalysisWork pins StaticBF's work on the 19 evaluation workloads:
// the block analyses of passes 1, 2 and 3, summed over every body of
// the BF placement, and sor's alone (the deepest loop nests).  The
// counts do not depend on the host, so a change that makes the passes
// analyze more (say, re-running each converged loop) fails here rather
// than only in a benchmark.  Solver and query counts are logged.
func TestAnalysisWork(t *testing.T) {
	var total [3]int
	var sor engine.PlacementStats
	for _, w := range workloads.All(workloads.DefaultScale()) {
		st := engine.InstrumentFor(bfj.MustParse(w.Source), "BF").Stats
		for i, n := range st.Work.Blocks {
			total[i] += n
		}
		if w.Name == "sor" {
			sor = st
		}
		t.Logf("%-10s blocks %v iterations %v solvers %d queries %d",
			w.Name, st.Work.Blocks, st.Work.Iterations, st.Work.Solvers, st.Work.Queries)
	}
	if want := [3]int{417, 447, 239}; total != want {
		t.Errorf("block analyses by pass, 19 workloads = %v, want %v", total, want)
	}
	if want := [3]int{57, 83, 25}; sor.Work.Blocks != want {
		t.Errorf("block analyses by pass, sor = %v, want %v", sor.Work.Blocks, want)
	}
}
