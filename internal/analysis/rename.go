package analysis

import (
	"fmt"

	"bigfoot/internal/bfj"
	"bigfoot/internal/expr"
)

// insertRenames is pass 0 of the analysis: it rewrites a body so that
// every assignment targets a variable not mentioned in any earlier
// statement, by inserting the renaming operation x' <- x ([Rename])
// before re-assignments and rewriting the statement's uses of x to x'.
// This establishes the freshness side condition of [Assign]/[Read]/...
// syntactically, so the dataflow passes never need to drop history.
//
// The rewrite is purely local: later statements still refer to x (the
// new value); only the re-assigning statement's RHS occurrences of x
// (the old value) move to x'.
func insertRenames(b *bfj.Block, params []expr.Var) *bfj.Block {
	r := &renamer{seen: map[expr.Var]bool{}, counts: map[expr.Var]int{}}
	for _, p := range params {
		r.seen[p] = true
	}
	return r.block(b)
}

type renamer struct {
	seen   map[expr.Var]bool
	counts map[expr.Var]int
}

func (r *renamer) freshFor(x expr.Var) expr.Var {
	r.counts[x]++
	n := r.counts[x]
	if n == 1 {
		return x + "'"
	}
	return expr.Var(fmt.Sprintf("%s'%d", x, n))
}

func (r *renamer) noteExpr(e expr.Expr) {
	vs := map[expr.Var]bool{}
	expr.FreeVars(e, vs)
	for v := range vs {
		r.seen[v] = true
	}
}

func (r *renamer) block(b *bfj.Block) *bfj.Block {
	out := &bfj.Block{}
	for _, s := range b.Stmts {
		r.stmt(s, out)
	}
	return out
}

// def handles an assignment to x: if x was seen, emit x' <- x and return
// the variable that old-value uses should be rewritten to.
func (r *renamer) def(x expr.Var, out *bfj.Block) (old expr.Var, renamed bool) {
	if r.seen[x] {
		nx := r.freshFor(x)
		out.Stmts = append(out.Stmts, &bfj.Rename{X: nx, Y: x})
		r.seen[nx] = true
		return nx, true
	}
	r.seen[x] = true
	return x, false
}

// sub rewrites e replacing x by nx when renamed.
func sub(e expr.Expr, x, nx expr.Var, renamed bool) expr.Expr {
	if !renamed {
		return e
	}
	ne, ok := expr.Subst(e, x, expr.V(nx))
	if !ok {
		return e // only possible for heap bases, which are plain vars here
	}
	return ne
}

func subVar(v, x, nx expr.Var, renamed bool) expr.Var {
	if renamed && v == x {
		return nx
	}
	return v
}

func (r *renamer) stmt(s bfj.Stmt, out *bfj.Block) {
	switch x := s.(type) {
	case *bfj.Assign:
		r.noteExpr(x.E)
		old, ren := r.def(x.X, out)
		out.Stmts = append(out.Stmts, &bfj.Assign{X: x.X, E: sub(x.E, x.X, old, ren)})
	case *bfj.Rename:
		// User-written rename: treat its target as a def.
		r.seen[x.Y] = true
		r.seen[x.X] = true
		out.Stmts = append(out.Stmts, bfj.CloneStmt(s))
	case *bfj.New:
		_, _ = r.def(x.X, out)
		out.Stmts = append(out.Stmts, bfj.CloneStmt(s))
	case *bfj.NewArray:
		r.noteExpr(x.Size)
		old, ren := r.def(x.X, out)
		out.Stmts = append(out.Stmts, &bfj.NewArray{X: x.X, Size: sub(x.Size, x.X, old, ren)})
	case *bfj.FieldRead:
		r.seen[x.Y] = true
		old, ren := r.def(x.X, out)
		out.Stmts = append(out.Stmts, &bfj.FieldRead{X: x.X, Y: subVar(x.Y, x.X, old, ren), F: x.F, Pos: x.Pos})
	case *bfj.FieldWrite:
		r.seen[x.Y] = true
		r.noteExpr(x.E)
		out.Stmts = append(out.Stmts, bfj.CloneStmt(s))
	case *bfj.ArrayRead:
		r.seen[x.Y] = true
		r.noteExpr(x.Z)
		old, ren := r.def(x.X, out)
		out.Stmts = append(out.Stmts, &bfj.ArrayRead{X: x.X, Y: subVar(x.Y, x.X, old, ren), Z: sub(x.Z, x.X, old, ren), Pos: x.Pos})
	case *bfj.ArrayWrite:
		r.seen[x.Y] = true
		r.noteExpr(x.Z)
		r.noteExpr(x.E)
		out.Stmts = append(out.Stmts, bfj.CloneStmt(s))
	case *bfj.Acquire, *bfj.Release, *bfj.Join, *bfj.Print, *bfj.Assert, *bfj.Check:
		// Pure uses; note variables and pass through.
		switch y := s.(type) {
		case *bfj.Acquire:
			r.seen[y.L] = true
		case *bfj.Release:
			r.seen[y.L] = true
		case *bfj.Join:
			r.seen[y.X] = true
		case *bfj.Print:
			for _, e := range y.Args {
				r.noteExpr(e)
			}
		case *bfj.Assert:
			r.noteExpr(y.Cond)
		}
		out.Stmts = append(out.Stmts, bfj.CloneStmt(s))
	case *bfj.Call:
		r.seen[x.Y] = true
		for _, a := range x.Args {
			r.noteExpr(a)
		}
		nc := &bfj.Call{Y: x.Y, M: x.M, Args: append([]expr.Expr(nil), x.Args...)}
		if x.X != "" {
			old, ren := r.def(x.X, out)
			nc.X = x.X
			nc.Y = subVar(x.Y, x.X, old, ren)
			for i, a := range nc.Args {
				nc.Args[i] = sub(a, x.X, old, ren)
			}
		}
		out.Stmts = append(out.Stmts, nc)
	case *bfj.Fork:
		r.seen[x.Y] = true
		for _, a := range x.Args {
			r.noteExpr(a)
		}
		nf := &bfj.Fork{Y: x.Y, M: x.M, Args: append([]expr.Expr(nil), x.Args...)}
		old, ren := r.def(x.X, out)
		nf.X = x.X
		nf.Y = subVar(x.Y, x.X, old, ren)
		for i, a := range nf.Args {
			nf.Args[i] = sub(a, x.X, old, ren)
		}
		out.Stmts = append(out.Stmts, nf)
	case *bfj.If:
		r.noteExpr(x.Cond)
		out.Stmts = append(out.Stmts, &bfj.If{Cond: x.Cond, Then: r.block(x.Then), Else: r.block(x.Else)})
	case *bfj.Loop:
		pre := r.block(x.Pre)
		r.noteExpr(x.Cond)
		post := r.block(x.Post)
		out.Stmts = append(out.Stmts, &bfj.Loop{Pre: pre, Cond: x.Cond, Post: post})
	default:
		out.Stmts = append(out.Stmts, bfj.CloneStmt(s))
	}
}
