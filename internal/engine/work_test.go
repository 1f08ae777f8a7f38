package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfj"
	"bigfoot/internal/engine"
	"bigfoot/internal/workloads"
)

// TestAnalysisWork pins StaticBF's work on the 19 evaluation workloads:
// the block analyses of passes 1, 2 and 3 and the entailment queries,
// summed over every body of the BF placement, and sor's alone (the
// deepest loop nests).  The counts do not depend on the host, so a
// change that makes the passes analyze more (say, re-running each
// converged loop) or ask more (say, proposing loop invariants that
// refinement can only reject) fails here rather than only in a
// benchmark.  Iteration and solver counts are logged.
func TestAnalysisWork(t *testing.T) {
	var total [3]int
	var queries int
	var sor engine.PlacementStats
	for _, w := range workloads.All(workloads.DefaultScale()) {
		st := engine.InstrumentFor(bfj.MustParse(w.Source), "BF").Stats
		for i, n := range st.Work.Blocks {
			total[i] += n
		}
		queries += st.Work.Queries
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
	if want := 11954; queries != want {
		t.Errorf("entailment queries, 19 workloads = %d, want %d", queries, want)
	}
	if want := 3240; sor.Work.Queries != want {
		t.Errorf("entailment queries, sor = %d, want %d", sor.Work.Queries, want)
	}
}

// TestConcurrentBuilds: bigfootd's sessions and bfbench -parallel
// build different programs at once.  Four goroutines each build the BF
// variant of all 19 workloads, each from a different first workload,
// and every build must give the instrumented text and the Work of a
// sequential pass.  Under -race this checks that builds share no
// mutable state.
func TestConcurrentBuilds(t *testing.T) {
	type placed struct {
		text string
		work analysis.Work
	}
	e := engine.New(engine.Options{})
	ws := workloads.All(workloads.DefaultScale())
	progs := make([]*bfj.Program, len(ws))
	build := func(i int) (placed, error) {
		art, err := e.BuildAST(progs[i], engine.BuildSpec{Variants: []string{"BF"}})
		if err != nil {
			return placed{}, fmt.Errorf("%s: %w", ws[i].Name, err)
		}
		return placed{bfj.FormatProgram(art.Variant("BF").Program()), art.Stats.Work}, nil
	}
	want := make([]placed, len(ws))
	for i, w := range ws {
		progs[i] = bfj.MustParse(w.Source)
		p, err := build(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(ws))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ws {
				i := (g*len(ws)/goroutines + k) % len(ws)
				got, err := build(i)
				switch {
				case err != nil:
					errs <- err
				case got.text != want[i].text:
					errs <- fmt.Errorf("%s: a concurrent build placed other checks than the sequential one", ws[i].Name)
				case got.work != want[i].work:
					errs <- fmt.Errorf("%s: concurrent build's work %+v, sequential %+v", ws[i].Name, got.work, want[i].work)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
