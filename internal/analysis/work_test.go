package analysis

import (
	"fmt"
	"strings"
	"testing"

	"bigfoot/internal/bfj"
)

// loopNest returns a thread running a depth-d nest of counting loops
// around one read and one write of the same array element.
func loopNest(d int) string {
	var b strings.Builder
	b.WriteString("setup { a = newarray 8; n = 4; id = 1; }\nthread {\n")
	for k := 1; k <= d; k++ {
		fmt.Fprintf(&b, "for (i%d = 0; i%d < n; i%d = i%d + 1) {\n", k, k, k, k)
	}
	b.WriteString("x = a[id];\na[id] = x + 1;\n")
	b.WriteString(strings.Repeat("}\n", d))
	b.WriteString("}\n")
	return b.String()
}

// TestLoopNestWork pins how the analysis's work grows with loop depth.
// Pass 1 refines each loop's invariant in two iterations, each of which
// analyzes the whole inner nest, so its block analyses double per level:
// f(d) = 2f(d-1) + 5, counting the body blocks and the branches of the
// `if` a for loop lowers to.  Analyzing each converged loop once more
// would make that ×3 (9, 33, 105, ...).  Passes 2 and 3 converge each
// loop in one iteration here and grow linearly.
func TestLoopNestWork(t *testing.T) {
	want := [][3]int{
		{7, 5, 5}, {19, 9, 9}, {43, 13, 13},
		{91, 17, 17}, {187, 21, 21}, {379, 25, 25},
	}
	for i, w := range want {
		d := i + 1
		an := New(bfj.MustParse(loopNest(d)), DefaultOptions())
		an.Instrument()
		if got := an.Stats.Work.Blocks; got != w {
			t.Errorf("depth %d: block analyses by pass = %v, want %v (iterations %v)",
				d, got, w, an.Stats.Work.Iterations)
		}
	}
}
