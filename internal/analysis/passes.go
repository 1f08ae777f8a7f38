package analysis

import (
	"bigfoot/internal/bfj"
	"bigfoot/internal/coalesce"
	"bigfoot/internal/expr"
)

// ---------------------------------------------------------------------------
// Pass 2: backward anticipated accesses
// ---------------------------------------------------------------------------

type pass2 struct {
	a  *Analyzer
	p1 *pass1
	// ant[b][i] is the anticipated set before b.Stmts[i]; ant[b][len] is
	// the block's post-anticipated set.
	ant      map[*bfj.Block][]AntSet
	loopHead map[*bfj.Loop]AntSet // anticipated at loop head (Ain)
}

func (p *pass2) block(b *bfj.Block, aOut AntSet) AntSet {
	p.a.Stats.Work.Blocks[1]++
	states := make([]AntSet, len(b.Stmts)+1)
	states[len(b.Stmts)] = aOut
	a := aOut
	for i := len(b.Stmts) - 1; i >= 0; i-- {
		a = p.stmt(b.Stmts[i], a)
		states[i] = a
	}
	p.ant[b] = states
	return a
}

// preHistoryOf returns the pass-1 history before the i-th statement of b.
func (p *pass2) preHistoryOf(b *bfj.Block, i int) History {
	hs := p.p1.pre[b]
	if hs == nil || i >= len(hs) {
		return NewHistory()
	}
	return hs[i]
}

func (p *pass2) stmt(s bfj.Stmt, aAfter AntSet) AntSet {
	if p.a.opts.NoAnticipation {
		return NewAntSet()
	}
	switch x := s.(type) {
	case *bfj.Assign:
		return aAfter.Subst(x.X, x.E)
	case *bfj.Rename:
		return aAfter.Subst(x.X, expr.V(x.Y))
	case *bfj.New:
		return aAfter.RemoveVar(x.X)
	case *bfj.NewArray:
		return aAfter.RemoveVar(x.X)
	case *bfj.FieldRead:
		if p.a.volatileField(x.F) {
			return NewAntSet() // acquire-like: pre-anticipated is empty
		}
		return aAfter.RemoveVar(x.X).Add(AntFact{Kind: bfj.Read, Path: expr.NewFieldPath(x.Y, x.F)})
	case *bfj.FieldWrite:
		if p.a.volatileField(x.F) {
			return aAfter // release-like: anticipated flows through
		}
		return aAfter.Add(AntFact{Kind: bfj.Write, Path: expr.NewFieldPath(x.Y, x.F)})
	case *bfj.ArrayRead:
		return aAfter.RemoveVar(x.X).Add(AntFact{Kind: bfj.Read, Path: expr.ArrayPath{Base: x.Y, Range: expr.Singleton(x.Z)}})
	case *bfj.ArrayWrite:
		return aAfter.Add(AntFact{Kind: bfj.Write, Path: expr.ArrayPath{Base: x.Y, Range: expr.Singleton(x.Z)}})
	case *bfj.Acquire, *bfj.Join:
		return NewAntSet()
	case *bfj.Release, *bfj.Fork:
		return aAfter
	case *bfj.Call:
		a := aAfter
		if x.X != "" {
			a = a.RemoveVar(x.X)
		}
		if p.a.kills.Effects(x.M, len(x.Args)).MayAcquire {
			return NewAntSet()
		}
		return a
	case *bfj.Print, *bfj.Assert, *bfj.Check:
		return aAfter
	case *bfj.If:
		a1 := p.block(x.Then, aAfter)
		a2 := p.block(x.Else, aAfter)
		h1 := p.preHistoryOf(x.Then, 0)
		h2 := p.preHistoryOf(x.Else, 0)
		return MeetAnt(h1, a1, h2, a2)
	case *bfj.Loop:
		return p.loop(x, aAfter)
	}
	return aAfter
}

func (p *pass2) loop(lp *bfj.Loop, aOut AntSet) AntSet {
	hinv := p.p1.loopInv[lp]
	hTest := p.p1.loopTest[lp]
	hOut := hTest.Add(BoolFact{E: lp.Cond})
	hBack0 := hTest.Add(BoolFact{E: expr.Not(lp.Cond)})

	// Heuristic candidates for the anticipated set at the loop head:
	// every access path appearing in the body (A_heuristic, §5).
	var candidates []AntFact
	for _, acc := range collectArrayAccesses(lp) {
		candidates = append(candidates, AntFact{Kind: acc.kind, Path: expr.ArrayPath{Base: acc.base, Range: expr.Singleton(acc.index)}})
	}
	for _, fa := range collectFieldAccesses(lp) {
		if !p.a.volatileField(fa.field) {
			candidates = append(candidates, AntFact{Kind: fa.kind, Path: expr.NewFieldPath(fa.base, fa.field)})
		}
	}
	aHead := NewAntSet(candidates...)
	if p.a.opts.NoAnticipation {
		aHead = NewAntSet()
	}

	// Keep the candidates justified by the computed head set.  As in
	// pass 1, the set only shrinks, and the converging iteration stored
	// the final states.
	for {
		p.a.Stats.Work.Iterations[1]++
		aPostIn := p.block(lp.Post, aHead)
		aPreIn := p.block(lp.Pre, MeetAnt(hOut, aOut, hBack0, aPostIn))
		next := aHead.Filter(func(f AntFact) bool {
			return EntailsAnt(hinv, aPreIn, f.Kind, f.Path)
		})
		if next.Len() == aHead.Len() {
			p.loopHead[lp] = aPreIn
			return aPreIn
		}
		aHead = next
	}
}

type fieldAccess struct {
	base  expr.Var
	field string
	kind  bfj.AccessKind
}

func collectFieldAccesses(lp *bfj.Loop) []fieldAccess {
	var out []fieldAccess
	walkLoop(lp, func(s bfj.Stmt) {
		switch x := s.(type) {
		case *bfj.FieldRead:
			out = append(out, fieldAccess{x.Y, x.F, bfj.Read})
		case *bfj.FieldWrite:
			out = append(out, fieldAccess{x.Y, x.F, bfj.Write})
		}
	})
	return out
}

// ---------------------------------------------------------------------------
// Pass 3: forward check placement (emits the instrumented body)
// ---------------------------------------------------------------------------

type pass3 struct {
	a  *Analyzer
	p1 *pass1
	p2 *pass2
}

// antAt returns the pass-2 anticipated set before b.Stmts[i].
func (p *pass3) antAt(b *bfj.Block, i int) AntSet {
	as := p.p2.ant[b]
	if as == nil || i >= len(as) {
		return NewAntSet()
	}
	return as[i]
}

// emitCheck appends a (coalesced) check statement to out and adds the
// corresponding √C facts to the history it returns.
func (p *pass3) emitCheck(out *bfj.Block, h History, items []bfj.CheckItem) History {
	if len(items) == 0 {
		return h
	}
	if !p.a.opts.NoCoalescing {
		items = coalesce.Coalesce(h.Solver(), items)
	}
	out.Stmts = append(out.Stmts, &bfj.Check{Items: items})
	p.a.Stats.ChecksPlaced++
	p.a.Stats.CheckItems += len(items)
	return h.Add(checkFactsOf(items)...)
}

func (p *pass3) block(b *bfj.Block, h History) (*bfj.Block, History) {
	p.a.Stats.Work.Blocks[2]++
	out := &bfj.Block{}
	for i, s := range b.Stmts {
		h = p.stmt(s, h, out, b, i)
	}
	return out, h
}

// stmt places the checks s needs, emits s and returns the history after
// it, which transfer computes.  Only synchronization needs checks before
// it: Checks(H, ∅) before an acquire, join or volatile read, Checks(H, A)
// before a release, fork or volatile write, and Checks(H, KillSet(H), A)
// before a call that synchronizes.
func (p *pass3) stmt(s bfj.Stmt, h History, out *bfj.Block, b *bfj.Block, i int) History {
	switch x := s.(type) {
	case *bfj.If:
		return p.ifStmt(x, h, out, b, i)
	case *bfj.Loop:
		return p.loop(x, h, out)
	case *bfj.Acquire, *bfj.Join:
		h = p.emitCheck(out, h, Checks(h, NewAntSet()))
	case *bfj.Release, *bfj.Fork:
		h = p.emitCheck(out, h, Checks(h, p.antAt(b, i)))
	case *bfj.FieldRead:
		if p.a.volatileField(x.F) {
			h = p.emitCheck(out, h, Checks(h, NewAntSet()))
		}
	case *bfj.FieldWrite:
		if p.a.volatileField(x.F) {
			h = p.emitCheck(out, h, Checks(h, p.antAt(b, i)))
		}
	case *bfj.Call:
		if eff := p.a.kills.Effects(x.M, len(x.Args)); eff.Syncs() {
			h = p.emitCheck(out, h, ChecksVs(h, killEffectsHistory(h, eff), p.antAt(b, i)))
		}
	}
	out.Stmts = append(out.Stmts, bfj.CloneStmt(s))
	return p.a.transfer(s, h)
}

func (p *pass3) ifStmt(x *bfj.If, h History, out *bfj.Block, b *bfj.Block, i int) History {
	h1 := h.Add(BoolFact{E: x.Cond})
	h2 := h.Add(BoolFact{E: expr.Not(x.Cond)})
	thenOut, h1p := p.block(x.Then, h1)
	elseOut, h2p := p.block(x.Else, h2)

	// Merge without the branch-end checks first ([If] rule).
	merged := MeetHistory(h1p, h2p)
	aOut := p.antAt(b, i+1)
	c1 := ChecksVs(h1p, merged, aOut)
	c2 := ChecksVs(h2p, merged, aOut)
	h1p = p.emitCheck(thenOut, h1p, c1)
	h2p = p.emitCheck(elseOut, h2p, c2)

	out.Stmts = append(out.Stmts, &bfj.If{Cond: x.Cond, Then: thenOut, Else: elseOut})
	return MeetHistory(h1p, h2p)
}

func (p *pass3) loop(lp *bfj.Loop, hin History, out *bfj.Block) History {
	hinvBase := p.p1.loopInv[lp] // boolean + access invariant from pass 1
	ain := p.p2.loopHead[lp]

	// Checks for accesses whose obligation would be lost entering the
	// loop ([Loop]: Cin = Checks(Hin, Hinv, Ain)).
	cin := ChecksVs(hin, hinvBase, ain)
	hin = p.emitCheck(out, hin, cin)

	// Check-fact invariant: checks valid at entry that are preserved
	// around the back edge.
	candC := checkFacts(hin)
	var preOut, postOut *bfj.Block
	var hTest, hBack History
	var cback []bfj.CheckItem
	for {
		p.a.Stats.Work.Iterations[2]++
		hHead := hinvBase
		for _, c := range candC {
			hHead = hHead.Add(CheckFact{Kind: c.Kind, Path: c.Path})
		}
		preOut, hTest = p.block(lp.Pre, hHead)
		hBack0 := hTest.Add(BoolFact{E: expr.Not(lp.Cond)})
		postOut, hBack = p.block(lp.Post, hBack0)
		cback = ChecksVs(hBack, hinvBase, ain)
		hBackC := hBack.Add(checkFactsOf(cback)...)
		var keep []pathFact
		for _, c := range candC {
			if EntailsCheck(hBackC, c.Kind, c.Path) {
				keep = append(keep, c)
			}
		}
		if len(keep) == len(candC) {
			break
		}
		candC = keep
	}
	// Emit back-edge checks at the end of the loop body.
	p.emitCheck(postOut, hBack, cback)
	out.Stmts = append(out.Stmts, &bfj.Loop{Pre: preOut, Cond: lp.Cond, Post: postOut})
	return hTest.Add(BoolFact{E: lp.Cond})
}
