package analysis

import (
	"runtime"
	"sync"
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
	// Parallel bounds the worker pool analyzing independent bodies;
	// 0 means GOMAXPROCS, 1 forces sequential analysis.
	Parallel int
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{}
}

// Stats accumulates static-analysis metrics (§6.1, Table 1).
type Stats struct {
	MethodsAnalyzed int
	BodiesAnalyzed  int
	AnalysisTime    time.Duration
	ChecksPlaced    int // check statements emitted
	CheckItems      int // individual path items across all checks
	Work            Work
}

// Work counts what the analysis did.  Unlike AnalysisTime it does not
// depend on the host or the pool size, so it is the unit in which the
// analysis's cost is pinned and budgeted.
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

// add accumulates o into w.
func (w *Work) add(o Work) {
	for i := range w.Blocks {
		w.Blocks[i] += o.Blocks[i]
		w.Iterations[i] += o.Iterations[i]
	}
	w.Solvers += o.Solvers
	w.Queries += o.Queries
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

// bodyJob is one independently analyzable body: its input, where the
// instrumented block goes, and the per-job stats to merge afterwards.
type bodyJob struct {
	body   *bfj.Block
	params []expr.Var
	method bool
	assign func(*bfj.Block)
	stats  Stats
}

// Instrument returns a copy of the program with BigFoot checks inserted
// into every method, setup, and thread body.
//
// Bodies are analyzed concurrently on a bounded worker pool: the kill
// sets are computed up front in New and read-only thereafter, every
// other input (program AST, options) is immutable during analysis, and
// each body's output is written to its own slot, so the instrumented
// program and the counting Stats are identical at every pool size.
func (a *Analyzer) Instrument() *bfj.Program {
	out := a.prog.Clone()
	var jobs []*bodyJob
	for _, c := range out.Classes {
		for _, m := range c.Methods {
			m := m
			jobs = append(jobs, &bodyJob{body: m.Body, params: m.Params, method: true,
				assign: func(b *bfj.Block) { m.Body = b }})
		}
	}
	// Setup runs single-threaded before the threads exist, so its
	// accesses cannot race; no checks are needed there (mirrors the
	// standard treatment of initialization code).
	for i, t := range out.Threads {
		i, t := i, t
		jobs = append(jobs, &bodyJob{body: t,
			assign: func(b *bfj.Block) { out.Threads[i] = b }})
	}

	workers := a.opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	next := make(chan *bodyJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				// A throwaway sub-analyzer shares the read-only inputs but
				// owns its Stats, so the passes never write shared state.
				sub := &Analyzer{prog: a.prog, kills: a.kills, opts: a.opts}
				start := time.Now()
				j.assign(sub.AnalyzeBody(j.body, j.params))
				sub.Stats.AnalysisTime = time.Since(start)
				sub.Stats.BodiesAnalyzed = 1
				if j.method {
					sub.Stats.MethodsAnalyzed = 1
				}
				j.stats = sub.Stats
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	// Merge per-job stats in job order (sums, so any order would do;
	// job order keeps the reasoning obvious).
	for _, j := range jobs {
		a.Stats.MethodsAnalyzed += j.stats.MethodsAnalyzed
		a.Stats.BodiesAnalyzed += j.stats.BodiesAnalyzed
		a.Stats.AnalysisTime += j.stats.AnalysisTime
		a.Stats.ChecksPlaced += j.stats.ChecksPlaced
		a.Stats.CheckItems += j.stats.CheckItems
		a.Stats.Work.add(j.stats.Work)
	}
	return out
}

// AnalyzeBody runs the full pass sequence on one body, returning the
// instrumented block.
func (a *Analyzer) AnalyzeBody(b *bfj.Block, params []expr.Var) *bfj.Block {
	renamed := insertRenames(b, params)
	// One solver table serves the body's three passes; it goes with them.
	tab := newSolverTable()

	p1 := &pass1{a: a, pre: map[*bfj.Block][]History{}, loopInv: map[*bfj.Loop]History{}, loopTest: map[*bfj.Loop]History{}}
	p1.block(renamed, bodyHistory(tab))

	p2 := &pass2{a: a, p1: p1, ant: map[*bfj.Block][]AntSet{}, loopHead: map[*bfj.Loop]AntSet{}}
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
	p1 := &pass1{a: a, pre: map[*bfj.Block][]History{}, loopInv: map[*bfj.Loop]History{}, loopTest: map[*bfj.Loop]History{}}
	p1.block(renamed, bodyHistory(newSolverTable()))
	p2 := &pass2{a: a, p1: p1, ant: map[*bfj.Block][]AntSet{}, loopHead: map[*bfj.Loop]AntSet{}}
	p2.block(renamed, NewAntSet())
	n := len(renamed.Stmts)
	out := make([]Ctx, n+1)
	for i := 0; i <= n; i++ {
		out[i] = Ctx{H: p1.pre[renamed][i], A: p2.ant[renamed][i]}
	}
	return out, renamed
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
func acquireTransfer(h History) History {
	return h.Filter(func(f Fact) bool {
		if b, ok := f.(BoolFact); ok {
			return !mentionsMutableHeap(b.E)
		}
		return true
	})
}

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

// killFieldAliases drops boolean facts that mention a selection of field
// f (a write to f through any alias may invalidate them).
func killFieldAliases(h History, f string) History {
	return h.Filter(func(fc Fact) bool {
		b, ok := fc.(BoolFact)
		if !ok {
			return true
		}
		return !mentionsFieldSel(b.E, f)
	})
}

// killArrayAliases drops boolean facts mentioning any array selection.
func killArrayAliases(h History) History {
	return h.Filter(func(fc Fact) bool {
		b, ok := fc.(BoolFact)
		if !ok {
			return true
		}
		return !mentionsIndexSel(b.E)
	})
}

func mentionsMutableHeap(e expr.Expr) bool {
	found := false
	walkExpr(e, func(x expr.Expr) {
		switch x.(type) {
		case expr.FieldSel, expr.IndexSel:
			found = true
		}
	})
	return found
}

func mentionsFieldSel(e expr.Expr, f string) bool {
	found := false
	walkExpr(e, func(x expr.Expr) {
		if fs, ok := x.(expr.FieldSel); ok && fs.Field == f {
			found = true
		}
	})
	return found
}

func mentionsIndexSel(e expr.Expr) bool {
	found := false
	walkExpr(e, func(x expr.Expr) {
		if _, ok := x.(expr.IndexSel); ok {
			found = true
		}
	})
	return found
}

func walkExpr(e expr.Expr, visit func(expr.Expr)) {
	visit(e)
	switch x := e.(type) {
	case expr.Binary:
		walkExpr(x.L, visit)
		walkExpr(x.R, visit)
	case expr.Unary:
		walkExpr(x.X, visit)
	case expr.IndexSel:
		walkExpr(x.Index, visit)
	}
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
	case *bfj.Assign:
		return h.Add(BoolFact{E: expr.Eq(expr.V(x.X), x.E)})
	case *bfj.Rename:
		return substHistory(h, x.Y, x.X)
	case *bfj.New:
		return h
	case *bfj.NewArray:
		return h.Add(BoolFact{E: expr.Eq(expr.LenOf{Base: x.X}, x.Size)})
	case *bfj.FieldRead:
		if p.a.volatileField(x.F) {
			return acquireTransfer(h)
		}
		return h.Add(
			AccessFact{Kind: bfj.Read, Path: expr.NewFieldPath(x.Y, x.F), Positions: posSet(x.Pos)},
			BoolFact{E: expr.Eq(expr.V(x.X), expr.FieldSel{Base: x.Y, Field: x.F})},
		)
	case *bfj.FieldWrite:
		if p.a.volatileField(x.F) {
			return releaseTransfer(h)
		}
		h = killFieldAliases(h, x.F)
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
		h = killArrayAliases(h)
		return h.Add(
			AccessFact{Kind: bfj.Write, Path: expr.ArrayPath{Base: x.Y, Range: expr.Singleton(x.Z)}, Positions: posSet(x.Pos)},
			BoolFact{E: expr.Eq(expr.IndexSel{Base: x.Y, Index: x.Z}, x.E)},
		)
	case *bfj.Acquire, *bfj.Join:
		return acquireTransfer(h)
	case *bfj.Release, *bfj.Fork:
		return releaseTransfer(h)
	case *bfj.Call:
		return killEffectsHistory(h, p.a.kills.Effects(x.M, len(x.Args)))
	case *bfj.Assert:
		return h.Add(BoolFact{E: x.Cond})
	case *bfj.Print:
		return h
	case *bfj.Check:
		return h.Add(checkFactsOf(x.Items)...)
	case *bfj.If:
		h1 := p.block(x.Then, h.Add(BoolFact{E: x.Cond}))
		h2 := p.block(x.Else, h.Add(BoolFact{E: expr.Not(x.Cond)}))
		return MeetHistory(h1, h2)
	case *bfj.Loop:
		return p.loop(x, h)
	}
	return h
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
			if last.hasKey(c.Key()) {
				kept = append(kept, c)
			}
		}
		candidates = kept
	}
	for {
		p.a.Stats.Work.Iterations[0]++
		hinv := hin.withFacts(candidates...)
		hTest := p.block(lp.Pre, hinv)
		hBack := p.block(lp.Post, hTest.Add(BoolFact{E: expr.Not(lp.Cond)}))
		keep := candidates[:0:0]
		for _, c := range candidates {
			if EntailsFact(hin, c) && EntailsFact(hBack, c) {
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
func (p *pass1) invariantCandidates(lp *bfj.Loop, hin History) []Fact {
	if p.a.opts.NoLoopInvariants {
		return nil
	}
	var out []Fact
	out = append(out, hin.Facts()...)
	ivs := findInductionVars(lp, hin)
	for _, iv := range ivs {
		if iv.init == nil {
			continue
		}
		// Bound fact: v >= e0 (step > 0) or v <= e0 (step < 0).
		if iv.step > 0 {
			out = append(out, BoolFact{E: expr.Ge(expr.V(iv.v), iv.init)})
		} else {
			out = append(out, BoolFact{E: expr.Le(expr.V(iv.v), iv.init)})
		}
		// Congruence fact for strides > 1: (v - e0) % |step| == 0,
		// needed to keep singleton back-edge accesses on the invariant
		// range's grid.
		if k := abs64(iv.step); k > 1 {
			out = append(out, BoolFact{E: expr.Eq(
				expr.Bin(expr.OpMod, expr.Sub(expr.V(iv.v), iv.init), expr.I(k)),
				expr.I(0))})
		}
		// Access-range facts for v-indexed array accesses in the body.
		// The offset between the access index and the induction variable
		// may be any expression over variables the loop does not assign
		// (e.g. i*n in the lufact row updates); invariant refinement
		// rejects candidates whose offsets turn out not to be stable.
		for _, acc := range collectArrayAccesses(lp) {
			d := expr.Diff(acc.index, expr.V(iv.v))
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
			out = append(out, AccessFact{Kind: acc.kind, Path: expr.ArrayPath{Base: acc.base, Range: r}, Positions: posSet(acc.pos)})
		}
	}
	return dedupFacts(out)
}

// addLinear returns e + d + c in simplified form.
func addLinear(e expr.Expr, d expr.Linear, c int64) expr.Expr {
	l := expr.Linearize(e).AddLinear(d, 1)
	l.Const += c
	return expr.FromLinear(l)
}

func dedupFacts(fs []Fact) []Fact {
	seen := map[string]bool{}
	out := fs[:0]
	for _, f := range fs {
		if !seen[f.Key()] {
			seen[f.Key()] = true
			out = append(out, f)
		}
	}
	return out
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

// collectArrayAccesses gathers every array access in the loop body
// (recursively).
func collectArrayAccesses(lp *bfj.Loop) []arrayAccess {
	var out []arrayAccess
	var walkBlock func(b *bfj.Block)
	var walkStmt func(s bfj.Stmt)
	walkStmt = func(s bfj.Stmt) {
		switch x := s.(type) {
		case *bfj.ArrayRead:
			out = append(out, arrayAccess{x.Y, x.Z, bfj.Read, x.Pos})
		case *bfj.ArrayWrite:
			out = append(out, arrayAccess{x.Y, x.Z, bfj.Write, x.Pos})
		case *bfj.If:
			walkBlock(x.Then)
			walkBlock(x.Else)
		case *bfj.Loop:
			walkBlock(x.Pre)
			walkBlock(x.Post)
		}
	}
	walkBlock = func(b *bfj.Block) {
		for _, s := range b.Stmts {
			walkStmt(s)
		}
	}
	walkBlock(lp.Pre)
	walkBlock(lp.Post)
	return out
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
