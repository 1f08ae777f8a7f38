package analysis

import (
	"testing"

	"bigfoot/internal/bfgen"
	"bigfoot/internal/bfj"
	"bigfoot/internal/expr"
	"bigfoot/internal/workloads"
)

// TestInstrumentDeterministicAcrossPoolSizes pins the concurrency
// contract of Instrument: the instrumented program text and every
// counting stat must be identical whether bodies are analyzed by one
// worker or many.  (Run under -race this also exercises the pool, and
// the per-body solver tables, for data races even when GOMAXPROCS is
// low.)  The generated program has several bodies with loops, whose
// fixpoints keep many workers busy at once.
func TestInstrumentDeterministicAcrossPoolSizes(t *testing.T) {
	srcs := map[string]string{}
	for _, name := range []string{"moldyn", "raytracer", "tomcat"} {
		w, ok := workloads.ByName(name, workloads.TestScale())
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		srcs[name] = w.Source
	}
	srcs["bfgen-12"] = bfgen.New(12).Source
	if n := loopBodies(bfj.MustParse(srcs["bfgen-12"])); n < 4 {
		t.Fatalf("bfgen-12 has %d bodies with loops, want at least 4", n)
	}
	for _, name := range []string{"moldyn", "raytracer", "tomcat", "bfgen-12"} {
		prog := bfj.MustParse(srcs[name])

		seq := New(prog, Options{Parallel: 1})
		seqOut := bfj.FormatProgram(seq.Instrument())

		for _, workers := range []int{4, 16} {
			par := New(prog, Options{Parallel: workers})
			parOut := bfj.FormatProgram(par.Instrument())
			if parOut != seqOut {
				t.Errorf("%s: instrumented program differs at Parallel=%d", name, workers)
			}
			if par.Stats.ChecksPlaced != seq.Stats.ChecksPlaced ||
				par.Stats.CheckItems != seq.Stats.CheckItems ||
				par.Stats.BodiesAnalyzed != seq.Stats.BodiesAnalyzed ||
				par.Stats.MethodsAnalyzed != seq.Stats.MethodsAnalyzed {
				t.Errorf("%s: stats differ at Parallel=%d: %+v vs %+v",
					name, workers, par.Stats, seq.Stats)
			}
		}
	}
}

// loopBodies counts the method and thread bodies containing a loop.
func loopBodies(p *bfj.Program) int {
	var hasLoop func(b *bfj.Block) bool
	hasLoop = func(b *bfj.Block) bool {
		for _, s := range b.Stmts {
			switch x := s.(type) {
			case *bfj.Loop:
				return true
			case *bfj.If:
				if hasLoop(x.Then) || hasLoop(x.Else) {
					return true
				}
			}
		}
		return false
	}
	n := 0
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			if hasLoop(m.Body) {
				n++
			}
		}
	}
	for _, b := range p.Threads {
		if hasLoop(b) {
			n++
		}
	}
	return n
}

// TestSolverTableSharesSolvers: within one body, histories with the
// same boolean facts share one solver (and its query caches), however
// they were derived; histories outside a body analysis build their own.
func TestSolverTableSharesSolvers(t *testing.T) {
	iPos := BoolFact{E: expr.Ge(expr.V("i"), expr.I(0))}
	jEq := BoolFact{E: expr.Eq(expr.V("j"), expr.Add(expr.V("i"), expr.I(1)))}
	acc := AccessFact{Kind: bfj.Read, Path: expr.NewFieldPath("p", "f")}

	root := bodyHistory(newSolverTable())
	h1 := root.Add(iPos, jEq)
	h2 := root.Add(jEq).Add(acc).Add(iPos)
	if h1.Solver() != h2.Solver() {
		t.Error("histories with the same boolean facts built different solvers")
	}
	h3 := h1.Filter(func(f Fact) bool { return f != Fact(jEq) })
	if h3.Solver() == h1.Solver() {
		t.Error("histories with different boolean facts share a solver")
	}
	if h4 := h2.Filter(func(f Fact) bool { _, isBool := f.(BoolFact); return isBool }); h4.Solver() != h1.Solver() {
		t.Error("dropping an access fact changed the solver")
	}
	if !h2.Solver().ProveLt(expr.V("i"), expr.V("j")) {
		t.Error("shared solver lost the facts")
	}

	other := bodyHistory(newSolverTable()).Add(iPos, jEq)
	if other.Solver() == h1.Solver() {
		t.Error("two bodies share a solver")
	}
	if NewHistory(iPos, jEq).Solver() == NewHistory(iPos, jEq).Solver() {
		t.Error("histories outside a body share a solver")
	}
}
