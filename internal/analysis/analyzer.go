package analysis

import (
	"slices"
	"time"

	"bigfoot/internal/bfj"
	"bigfoot/internal/expr"
	"bigfoot/internal/killset"
)

// Options configures the analyzer.
type Options struct {
	// NoAnticipation disables anticipated-access reasoning (ablation).
	NoAnticipation bool
	// NoCoalescing disables the post-analysis path coalescing (ablation).
	NoCoalescing bool
	// NoLoopInvariants disables loop-invariant inference (ablation):
	// checks cannot move out of loops.
	NoLoopInvariants bool
}

// Stats accumulates static-analysis metrics (§6.1, Table 1).
type Stats struct {
	BodiesAnalyzed int
	AnalysisTime   time.Duration // wall time of Instrument's loop over the bodies
	ChecksPlaced   int           // check statements emitted
	CheckItems     int           // individual path items across all checks
	Work           Work
}

// Work counts what the analysis did.  Unlike AnalysisTime it does not
// depend on the host, so it is the unit in which the analysis's cost is
// pinned and budgeted.
type Work struct {
	// Blocks counts block analyses by passes 1, 2 and 3: one per call
	// of the pass's block function.
	Blocks [3]int
	// Iterations counts loop refinement iterations by passes 1, 2 and 3.
	Iterations [3]int
	// Solvers counts the entailment solvers built.
	Solvers int
	// Queries counts the entailment queries the solvers answered.
	Queries int
}

// Analyzer runs BigFoot check placement on BFJ programs.
type Analyzer struct {
	prog  *bfj.Program
	kills *killset.Table
	opts  Options
	Stats Stats
}

// New creates an analyzer for the program.
func New(prog *bfj.Program, opts Options) *Analyzer {
	return &Analyzer{prog: prog, kills: killset.Compute(prog), opts: opts}
}

// Instrument returns a copy of the program with BigFoot checks inserted
// into every method and thread body.
//
// The bodies are analyzed one after another, on one goroutine that
// Instrument starts and waits for.  The same loop on the caller's
// goroutine made bench's build-cold workload slower and larger: over 5
// alternated pairs (seed 1, 25 s, 2-vCPU Xeon VM) ops_per_s fell 3.6%
// and peak RSS rose 10.5%, both in every pair, and a 12 s run made 861
// GCs against 1,202, each marking 3.6 MB against 3.0 MB.  Why is not
// established.
func (a *Analyzer) Instrument() *bfj.Program {
	out := a.prog.Clone()
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		for _, c := range out.Classes {
			for _, m := range c.Methods {
				m.Body = a.AnalyzeBody(m.Body, m.Params)
				a.Stats.BodiesAnalyzed++
			}
		}
		// Setup runs single-threaded before the threads exist, so its
		// accesses cannot race; no checks are needed there (mirrors the
		// standard treatment of initialization code).
		for i, t := range out.Threads {
			out.Threads[i] = a.AnalyzeBody(t, nil)
			a.Stats.BodiesAnalyzed++
		}
		a.Stats.AnalysisTime += time.Since(start)
	}()
	<-done
	return out
}

// AnalyzeBody runs the full pass sequence on one body, returning the
// instrumented block.
func (a *Analyzer) AnalyzeBody(b *bfj.Block, params []expr.Var) *bfj.Block {
	renamed := insertRenames(b, params)
	// One solver table serves the body's three passes; it goes with them.
	tab := newSolverTable()

	p1, p2 := a.newPasses()
	p1.block(renamed, bodyHistory(tab))
	p2.block(renamed, NewAntSet())

	p3 := &pass3{a: a, p1: p1, p2: p2}
	out, h := p3.block(renamed, bodyHistory(tab))
	// [Stmt]/[Method]: final checks at the body's end.
	final := Checks(h, NewAntSet())
	p3.emitCheck(out, h, final)
	for _, s := range tab.byFacts {
		a.Stats.Work.Solvers++
		a.Stats.Work.Queries += s.Queries()
	}
	return out
}

// AnalyzeContexts runs passes 0–2 and returns, for a single body, the
// computed pre-history and pre-anticipated set at each top-level
// statement (golden-test support: the analysis contexts of Figs. 3/6).
func (a *Analyzer) AnalyzeContexts(b *bfj.Block, params []expr.Var) ([]Ctx, *bfj.Block) {
	renamed := insertRenames(b, params)
	p1, p2 := a.newPasses()
	p1.block(renamed, bodyHistory(newSolverTable()))
	p2.block(renamed, NewAntSet())
	n := len(renamed.Stmts)
	out := make([]Ctx, n+1)
	for i := 0; i <= n; i++ {
		out[i] = Ctx{H: p1.pre[renamed][i], A: p2.ant[renamed][i]}
	}
	return out, renamed
}

// newPasses returns one body's passes 1 and 2, empty, pass 2 reading
// pass 1's states.  It does not run them: a helper that did would not
// inline, and the passes and their maps it returned would move from
// the caller's stack to the heap (+1.7% bytes allocated by StaticBF).
func (a *Analyzer) newPasses() (*pass1, *pass2) {
	p1 := &pass1{a: a, pre: map[*bfj.Block][]History{}, loopInv: map[*bfj.Loop]History{}, loopTest: map[*bfj.Loop]History{}}
	return p1, &pass2{a: a, p1: p1, ant: map[*bfj.Block][]AntSet{}, loopHead: map[*bfj.Loop]AntSet{}}
}

// volatileField reports whether a field access is synchronization.
func (a *Analyzer) volatileField(f string) bool { return a.kills.IsVolatileField(f) }

// ---------------------------------------------------------------------------
// Shared transfer helpers
// ---------------------------------------------------------------------------

// acquireTransfer models the history effect of an acquire-like operation
// (acquire, join, volatile read): past accesses and checks survive, but
// heap-alias boolean facts die (another thread's writes may now be
// visible).
func acquireTransfer(h History) History { return killAliases(h, expr.IsHeapSel) }

// releaseTransfer models a release-like operation (release, fork,
// volatile write): past accesses and checks are forgotten (their
// legitimate-check range ends); boolean facts survive (our own view of
// the heap is unchanged).
func releaseTransfer(h History) History {
	return h.Filter(func(f Fact) bool {
		_, isBool := f.(BoolFact)
		return isBool
	})
}

// killAliases drops the boolean facts that mention a heap selection for
// which sel holds: a write through an alias, or another thread's write
// made visible by an acquire, may have changed the selection.
func killAliases(h History, sel func(expr.Expr) bool) History {
	return h.Filter(func(f Fact) bool {
		b, ok := f.(BoolFact)
		return !ok || !expr.Any(b.E, sel)
	})
}

// substHistory computes H[y := x] for [Rename], dropping facts whose
// substitution is ill-formed.  Facts not mentioning y keep their keys;
// the rest are re-keyed, in key order, merging into equal keys.
func substHistory(h History, y, x expr.Var) History {
	n := History{facts: make([]keyed[Fact], 0, len(h.facts)), solver: &solverCell{tab: h.table()}}
	for _, kf := range h.facts {
		var f Fact
		switch v := kf.f.(type) {
		case BoolFact:
			if !expr.Mentions(v.E, y) {
				n.facts = insertKeyed(n.facts, kf, mergeFactPositions)
				continue
			}
			e, ok := expr.Subst(v.E, y, expr.V(x))
			if !ok {
				continue
			}
			f = BoolFact{E: e}
		case AccessFact:
			if !expr.PathMentions(v.Path, y) {
				n.facts = insertKeyed(n.facts, kf, mergeFactPositions)
				continue
			}
			p, ok := expr.SubstPath(v.Path, y, expr.V(x))
			if !ok {
				continue
			}
			f = AccessFact{Kind: v.Kind, Path: p, Positions: v.Positions}
		case CheckFact:
			if !expr.PathMentions(v.Path, y) {
				n.facts = insertKeyed(n.facts, kf, mergeFactPositions)
				continue
			}
			p, ok := expr.SubstPath(v.Path, y, expr.V(x))
			if !ok {
				continue
			}
			f = CheckFact{Kind: v.Kind, Path: p}
		default:
			continue
		}
		n.facts = insertFact(n.facts, f)
	}
	return n
}

// killEffectsHistory applies a call's kill set to the history.
func killEffectsHistory(h History, eff killset.Effects) History {
	return h.Filter(func(f Fact) bool {
		switch v := f.(type) {
		case AccessFact:
			return !eff.Syncs()
		case CheckFact:
			return !eff.MayRelease
		case BoolFact:
			return !eff.KillsAliasFact(v.E)
		}
		return true
	})
}

// transfer applies Fig. 7's history rule for s, any statement but an if
// or a loop, to the history h before it.  Passes 1 and 3 both compute
// their histories through it; pass 3 places its checks before it.
func (a *Analyzer) transfer(s bfj.Stmt, h History) History {
	switch x := s.(type) {
	case *bfj.Assign:
		return h.Add(BoolFact{E: expr.Eq(expr.V(x.X), x.E)})
	case *bfj.Rename:
		return substHistory(h, x.Y, x.X)
	case *bfj.NewArray:
		return h.Add(BoolFact{E: expr.Eq(expr.LenOf{Base: x.X}, x.Size)})
	case *bfj.FieldRead:
		if a.volatileField(x.F) {
			return acquireTransfer(h)
		}
		return h.Add(
			AccessFact{Kind: bfj.Read, Path: expr.NewFieldPath(x.Y, x.F), Positions: posSet(x.Pos)},
			BoolFact{E: expr.Eq(expr.V(x.X), expr.FieldSel{Base: x.Y, Field: x.F})},
		)
	case *bfj.FieldWrite:
		if a.volatileField(x.F) {
			return releaseTransfer(h)
		}
		h = killAliases(h, func(e expr.Expr) bool {
			fs, ok := e.(expr.FieldSel)
			return ok && fs.Field == x.F
		})
		return h.Add(
			AccessFact{Kind: bfj.Write, Path: expr.NewFieldPath(x.Y, x.F), Positions: posSet(x.Pos)},
			BoolFact{E: expr.Eq(expr.FieldSel{Base: x.Y, Field: x.F}, x.E)},
		)
	case *bfj.ArrayRead:
		return h.Add(
			AccessFact{Kind: bfj.Read, Path: expr.ArrayPath{Base: x.Y, Range: expr.Singleton(x.Z)}, Positions: posSet(x.Pos)},
			BoolFact{E: expr.Eq(expr.V(x.X), expr.IndexSel{Base: x.Y, Index: x.Z})},
		)
	case *bfj.ArrayWrite:
		h = killAliases(h, func(e expr.Expr) bool {
			_, ok := e.(expr.IndexSel)
			return ok
		})
		return h.Add(
			AccessFact{Kind: bfj.Write, Path: expr.ArrayPath{Base: x.Y, Range: expr.Singleton(x.Z)}, Positions: posSet(x.Pos)},
			BoolFact{E: expr.Eq(expr.IndexSel{Base: x.Y, Index: x.Z}, x.E)},
		)
	case *bfj.Acquire, *bfj.Join:
		return acquireTransfer(h)
	case *bfj.Release, *bfj.Fork:
		return releaseTransfer(h)
	case *bfj.Call:
		return killEffectsHistory(h, a.kills.Effects(x.M, len(x.Args)))
	case *bfj.Assert:
		return h.Add(BoolFact{E: x.Cond})
	case *bfj.Check:
		return h.Add(checkFactsOf(x.Items)...)
	}
	return h // New, Print
}

// ---------------------------------------------------------------------------
// Pass 1: forward history (boolean/alias facts + past accesses)
// ---------------------------------------------------------------------------

type pass1 struct {
	a *Analyzer
	// pre[b][i] is the history before b.Stmts[i]; pre[b][len] is the
	// block's post-history.
	pre      map[*bfj.Block][]History
	loopInv  map[*bfj.Loop]History
	loopTest map[*bfj.Loop]History // history at the exit test
}

func (p *pass1) block(b *bfj.Block, h History) History {
	p.a.Stats.Work.Blocks[0]++
	states := make([]History, len(b.Stmts)+1)
	for i, s := range b.Stmts {
		states[i] = h
		h = p.stmt(s, h)
	}
	states[len(b.Stmts)] = h
	p.pre[b] = states
	return h
}

func (p *pass1) stmt(s bfj.Stmt, h History) History {
	switch x := s.(type) {
	case *bfj.If:
		h1 := p.block(x.Then, h.Add(BoolFact{E: x.Cond}))
		h2 := p.block(x.Else, h.Add(BoolFact{E: expr.Not(x.Cond)}))
		return MeetHistory(h1, h2)
	case *bfj.Loop:
		return p.loop(x, h)
	}
	return p.a.transfer(s, h)
}

// loop refines the invariant candidates until every one is entailed on
// loop entry and preserved around the back edge.  Refinement strictly
// shrinks a finite set, so the loop always leaves through that test, and
// the converging iteration ran with the final invariant: the states it
// stored for the body's blocks and inner loops are the final ones.
//
// An enclosing loop's refinement analyzes this loop once per iteration,
// each time from a weaker entry history.  A weaker entry can only
// shrink the greatest invariant (Houdini), so a re-analysis starts from
// the fresh candidates that the last converged invariant kept, and
// usually converges in one iteration: pass 1 then grows quadratically
// with nesting depth instead of doubling per level.  Exactness would
// need entailment to be monotone, which the solver's elimination caps
// do not guarantee; the placement goldens check it empirically.
func (p *pass1) loop(lp *bfj.Loop, hin History) History {
	candidates := p.invariantCandidates(lp, hin)
	if last, ok := p.loopInv[lp]; ok {
		kept := candidates[:0]
		for _, c := range candidates {
			if last.hasKey(c.key) {
				kept = append(kept, c)
			}
		}
		candidates = kept
	}
	for {
		p.a.Stats.Work.Iterations[0]++
		hinv := hin.withKeyed(candidates)
		hTest := p.block(lp.Pre, hinv)
		hBack := p.block(lp.Post, hTest.Add(BoolFact{E: expr.Not(lp.Cond)}))
		keep := candidates[:0:0]
		for _, c := range candidates {
			if entailsFact(hin, c.key, c.f) && entailsFact(hBack, c.key, c.f) {
				keep = append(keep, c)
			}
		}
		if len(keep) == len(candidates) {
			p.loopInv[lp] = hinv
			p.loopTest[lp] = hTest
			return hTest.Add(BoolFact{E: lp.Cond})
		}
		candidates = keep
	}
}

// inductionVar describes a linear induction variable of a loop.
type inductionVar struct {
	v    expr.Var  // the variable
	step int64     // per-iteration increment (may be negative)
	init expr.Expr // value at loop entry, if known
}

// findInductionVars detects top-level "v' <- v; ...; v = v' + c" update
// patterns (the shape pass 0 produces for v = v + c) across the loop's
// Pre and Post blocks.
func findInductionVars(lp *bfj.Loop, hin History) []inductionVar {
	renames := map[expr.Var]expr.Var{} // old-name copy -> source var
	var out []inductionVar
	tops := append(append([]bfj.Stmt(nil), lp.Pre.Stmts...), lp.Post.Stmts...)
	for _, s := range tops {
		switch x := s.(type) {
		case *bfj.Rename:
			renames[x.X] = x.Y
		case *bfj.Assign:
			l := expr.Linearize(x.E)
			if l.Len() != 1 {
				continue
			}
			t := l.Term(0)
			if t.Coef != 1 || t.Key.Kind != expr.KindVar || t.Key.Name == "" {
				continue
			}
			if renames[expr.Var(t.Key.Name)] != x.X || l.Const == 0 {
				continue
			}
			iv := inductionVar{v: x.X, step: l.Const}
			iv.init = initialValue(hin, x.X)
			out = append(out, iv)
		}
	}
	return out
}

// initialValue finds an expression e0 with hin ⊢ v = e0 that does not
// mention v, preferring a syntactic "v == e0" fact.
func initialValue(hin History, v expr.Var) expr.Expr {
	for _, kf := range hin.facts {
		b, ok := kf.f.(BoolFact)
		if !ok {
			continue
		}
		eq, ok := b.E.(expr.Binary)
		if !ok || eq.Op != expr.OpEq {
			continue
		}
		if vr, ok := eq.L.(expr.VarRef); ok && vr.Name == v && !expr.Mentions(eq.R, v) {
			return eq.R
		}
		if vr, ok := eq.R.(expr.VarRef); ok && vr.Name == v && !expr.Mentions(eq.L, v) {
			return eq.L
		}
	}
	if c, ok := hin.Solver().ConstDiff(expr.V(v), expr.I(0)); ok {
		return expr.I(c)
	}
	return nil
}

// invariantCandidates builds H_heuristic for the loop (§5 "Loop
// Invariants"): all entry facts, plus strided access-range and bound
// facts derived from induction variables (Cartesian predicate
// abstraction seeded from induction analysis).
//
// An access a[index] in the body proposes the range of a[v + d] over
// the iterations so far, d = index - v.  The offset d may be any
// expression over variables the loop does not assign (e.g. i*n in
// lufact's row updates, where i is an outer counter).  If d mentions a
// variable the loop assigns (an inner loop's counter, a rename copy, or
// v itself inside an opaque product such as i*n), the range is not
// proposed: at the loop head that variable no longer holds the value
// the access used, so the range does not describe the iterations so
// far.  Refinement spent most of its queries rejecting such ranges, and
// one it kept made pass 3 place a check that reads the variable before
// the body assigns it.
func (p *pass1) invariantCandidates(lp *bfj.Loop, hin History) []keyed[Fact] {
	if p.a.opts.NoLoopInvariants {
		return nil
	}
	// The entry facts come with their keys; a derived fact's key is
	// rendered once, here, and the first fact with a key wins.
	out := slices.Clone(hin.facts)
	derived := map[string]bool{}
	add := func(f Fact) {
		if key := f.Key(); !hin.hasKey(key) && !derived[key] {
			derived[key] = true
			out = append(out, keyed[Fact]{key, f})
		}
	}
	ivs := findInductionVars(lp, hin)
	accs := collectArrayAccesses(lp)
	assigned := assignedVars(lp)
	for _, iv := range ivs {
		if iv.init == nil {
			continue
		}
		// Bound fact: v >= e0 (step > 0) or v <= e0 (step < 0).
		if iv.step > 0 {
			add(BoolFact{E: expr.Ge(expr.V(iv.v), iv.init)})
		} else {
			add(BoolFact{E: expr.Le(expr.V(iv.v), iv.init)})
		}
		// Congruence fact for strides > 1: (v - e0) % |step| == 0,
		// needed to keep singleton back-edge accesses on the invariant
		// range's grid.
		if k := abs64(iv.step); k > 1 {
			add(BoolFact{E: expr.Eq(
				expr.Bin(expr.OpMod, expr.Sub(expr.V(iv.v), iv.init), expr.I(k)),
				expr.I(0))})
		}
		// Access-range facts for v-indexed array accesses in the body.
		for _, acc := range accs {
			d := expr.Diff(acc.index, expr.V(iv.v))
			if linearMentions(d, assigned) {
				continue
			}
			k := iv.step
			var r expr.StridedRange
			if k > 0 {
				// Accessed so far: e0+d, e0+d+k, ..., < v+d.
				r = expr.StridedRange{
					Lo:   addLinear(iv.init, d, 0),
					Hi:   addLinear(expr.V(iv.v), d, 0),
					Step: expr.I(k),
				}
			} else {
				// Descending: v+d-k ... down to e0+d.
				r = expr.StridedRange{
					Lo:   addLinear(expr.V(iv.v), d, -k),
					Hi:   addLinear(iv.init, d, 1),
					Step: expr.I(-k),
				}
			}
			add(AccessFact{Kind: acc.kind, Path: expr.ArrayPath{Base: acc.base, Range: r}, Positions: posSet(acc.pos)})
		}
	}
	return out
}

// addLinear returns e + d + c in simplified form.
func addLinear(e expr.Expr, d expr.Linear, c int64) expr.Expr {
	l := expr.Linearize(e).AddLinear(d, 1)
	l.Const += c
	return expr.FromLinear(l)
}

type arrayAccess struct {
	base  expr.Var
	index expr.Expr
	kind  bfj.AccessKind
	pos   bfj.Pos
}

// posSet wraps a single statement position as a fact position set
// (empty for positionless, programmatically built ASTs).
func posSet(p bfj.Pos) []bfj.Pos {
	if !p.IsValid() {
		return nil
	}
	return []bfj.Pos{p}
}

// walkLoop calls visit on every statement of the loop body in order,
// descending into nested ifs and loops after visiting them.
func walkLoop(lp *bfj.Loop, visit func(bfj.Stmt)) {
	var walkBlock func(b *bfj.Block)
	walkBlock = func(b *bfj.Block) {
		for _, s := range b.Stmts {
			visit(s)
			switch x := s.(type) {
			case *bfj.If:
				walkBlock(x.Then)
				walkBlock(x.Else)
			case *bfj.Loop:
				walkBlock(x.Pre)
				walkBlock(x.Post)
			}
		}
	}
	walkBlock(lp.Pre)
	walkBlock(lp.Post)
}

// collectArrayAccesses gathers every array access in the loop body
// (recursively).
func collectArrayAccesses(lp *bfj.Loop) []arrayAccess {
	var out []arrayAccess
	walkLoop(lp, func(s bfj.Stmt) {
		switch x := s.(type) {
		case *bfj.ArrayRead:
			out = append(out, arrayAccess{x.Y, x.Z, bfj.Read, x.Pos})
		case *bfj.ArrayWrite:
			out = append(out, arrayAccess{x.Y, x.Z, bfj.Write, x.Pos})
		}
	})
	return out
}

// assignedVars returns the variables the loop body assigns
// (recursively): counters, rename copies and every other target.
func assignedVars(lp *bfj.Loop) map[expr.Var]bool {
	vs := map[expr.Var]bool{}
	walkLoop(lp, func(s bfj.Stmt) {
		if v, ok := bfj.Def(s); ok {
			vs[v] = true
		}
	})
	return vs
}

// linearMentions reports whether a term of l mentions a variable of vs.
func linearMentions(l expr.Linear, vs map[expr.Var]bool) bool {
	free := map[expr.Var]bool{}
	for i := 0; i < l.Len(); i++ {
		expr.FreeVars(l.Term(i).Expr, free)
	}
	for v := range free {
		if vs[v] {
			return true
		}
	}
	return false
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
