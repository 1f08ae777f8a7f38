package analysis

import (
	"testing"

	"bigfoot/internal/bfgen"
	"bigfoot/internal/bfj"
)

// TestLoopNestWork pins how the analysis's work grows with the depth of
// bfgen.LoopNest's nest, indexed by the loop-independent id.
// Pass 1 refines each loop's invariant; an enclosing loop's refinement
// re-analyzes the inner nest once per iteration, and each re-analysis
// starts from the inner loop's last converged invariant, so it
// converges in one iteration.  Counting the body blocks and the
// branches of the `if` a for loop lowers to, pass 1 does 2d²+4d+1 block
// analyses at depth d.  A refinement that restarts from all candidates
// instead doubles per level, f(d) = 2f(d-1) + 5: 1,531 at depth 8 and
// 24,571 at depth 12.  Passes 2 and 3 converge each loop in one
// iteration here and grow linearly.
func TestLoopNestWork(t *testing.T) {
	want := []struct {
		depth  int
		blocks [3]int
	}{
		{1, [3]int{7, 5, 5}}, {2, [3]int{17, 9, 9}}, {3, [3]int{31, 13, 13}},
		{4, [3]int{49, 17, 17}}, {5, [3]int{71, 21, 21}}, {6, [3]int{97, 25, 25}},
		{8, [3]int{161, 33, 33}}, {12, [3]int{337, 49, 49}},
	}
	for _, w := range want {
		an := New(bfj.MustParse(bfgen.LoopNest(w.depth, "id")), Options{})
		an.Instrument()
		wk := an.Stats.Work
		t.Logf("depth %2d: blocks %v iterations %v solvers %d queries %d",
			w.depth, wk.Blocks, wk.Iterations, wk.Solvers, wk.Queries)
		if got := wk.Blocks; got != w.blocks {
			t.Errorf("depth %d: block analyses by pass = %v, want %v (iterations %v)",
				w.depth, got, w.blocks, wk.Iterations)
		}
	}
}
