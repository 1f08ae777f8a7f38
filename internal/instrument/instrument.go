// Package instrument produces the check-instrumented program variants
// used by the detector comparison (Figure 2 of the paper):
//
//   - EveryAccess: a check immediately before every heap access — the
//     placement used by FastTrack and SlimState;
//   - RedCard: EveryAccess minus checks that are redundant within a
//     release-free span (a prior checked access to the same path by the
//     same thread already covers them);
//   - BigFoot placement lives in the analysis package (full check
//     motion and coalescing).
//
// Setup code runs single-threaded before any thread exists and is not
// instrumented under any variant.
package instrument

import (
	"bigfoot/internal/bfj"
	"bigfoot/internal/expr"
	"bigfoot/internal/killset"
)

// Stats reports instrumentation counts.
type Stats struct {
	ChecksInserted   int
	ChecksSuppressed int // RedCard only: redundant checks eliminated
}

// EveryAccess inserts a check before each non-volatile heap access in
// every method and thread body.
func EveryAccess(prog *bfj.Program) (*bfj.Program, Stats) {
	out := prog.Clone()
	ins := &inserter{kills: killset.Compute(out)}
	for _, m := range out.Methods() {
		m.Body = ins.block(m.Body, nil)
	}
	for i, t := range out.Threads {
		out.Threads[i] = ins.block(t, nil)
	}
	return out, ins.stats
}

// RedCard inserts a check before each heap access unless a covering
// check on the same path already happened in the current release-free
// span.
func RedCard(prog *bfj.Program) (*bfj.Program, Stats) {
	out := prog.Clone()
	ins := &inserter{kills: killset.Compute(out), redcard: true}
	for _, m := range out.Methods() {
		m.Body = ins.block(m.Body, newSpan())
	}
	for i, t := range out.Threads {
		out.Threads[i] = ins.block(t, newSpan())
	}
	return out, ins.stats
}

type inserter struct {
	kills   *killset.Table
	redcard bool
	stats   Stats
}

// span tracks the paths checked in the current release-free span
// (RedCard).  Keys encode (designator, field-or-index, kind); a write
// check key also satisfies the corresponding read key.
type span struct {
	checked map[string]bool
}

func newSpan() *span { return &span{checked: map[string]bool{}} }

func (s *span) clone() *span {
	if s == nil {
		return nil
	}
	n := newSpan()
	for k := range s.checked {
		n.checked[k] = true
	}
	return n
}

// intersect keeps keys present in both spans.
func (s *span) intersect(o *span) {
	for k := range s.checked {
		if !o.checked[k] {
			delete(s.checked, k)
		}
	}
}

// killVar drops facts mentioning the reassigned variable.
func (s *span) killVar(v expr.Var, keyVars map[string][]expr.Var) {
	for k := range s.checked {
		for _, kv := range keyVars[k] {
			if kv == v {
				delete(s.checked, k)
				break
			}
		}
	}
}

func (s *span) clear() {
	for k := range s.checked {
		delete(s.checked, k)
	}
}

// spanKeys returns the key and variable set for an access path.
func fieldKey(y expr.Var, f string, write bool) string {
	k := string(y) + "." + f
	if write {
		return "w:" + k
	}
	return "r:" + k
}

func arrayKey(y expr.Var, z expr.Expr, write bool) string {
	k := string(y) + "[" + expr.Linearize(z).Key() + "]"
	if write {
		return "w:" + k
	}
	return "r:" + k
}

// keyVarsOf returns the variables an array access key mentions, so a
// reassignment of any of them kills exactly the spans that depend on it.
func keyVarsOf(y expr.Var, z expr.Expr) []expr.Var {
	vs := map[expr.Var]bool{y: true}
	if z != nil {
		expr.FreeVars(z, vs)
	}
	out := make([]expr.Var, 0, len(vs))
	for v := range vs {
		out = append(out, v)
	}
	return out
}

func (in *inserter) emit(out *bfj.Block, kind bfj.AccessKind, path expr.Path, pos bfj.Pos) {
	var poss []bfj.Pos
	if pos.IsValid() {
		poss = []bfj.Pos{pos}
	}
	out.Stmts = append(out.Stmts, &bfj.Check{Items: []bfj.CheckItem{{Kind: kind, Path: path, Positions: poss}}})
	in.stats.ChecksInserted++
}

// covered reports whether the span already has a covering check.
func (in *inserter) covered(s *span, readKey, writeKey string, write bool) bool {
	if !in.redcard || s == nil {
		return false
	}
	if s.checked[writeKey] {
		return true // a write check covers reads and writes
	}
	return !write && s.checked[readKey]
}

func (in *inserter) block(b *bfj.Block, s *span) *bfj.Block {
	out := &bfj.Block{}
	keyVars := map[string][]expr.Var{}
	for _, st := range b.Stmts {
		in.stmt(st, out, s, keyVars)
	}
	return out
}

func (in *inserter) access(out *bfj.Block, s *span, keyVars map[string][]expr.Var,
	kind bfj.AccessKind, path expr.Path, readKey, writeKey string, vars []expr.Var, pos bfj.Pos) {
	write := kind == bfj.Write
	if in.covered(s, readKey, writeKey, write) {
		in.stats.ChecksSuppressed++
		return
	}
	in.emit(out, kind, path, pos)
	if in.redcard && s != nil {
		key := readKey
		if write {
			key = writeKey
		}
		s.checked[key] = true
		keyVars[key] = vars
	}
}

func (in *inserter) stmt(st bfj.Stmt, out *bfj.Block, s *span, keyVars map[string][]expr.Var) {
	redcard := in.redcard && s != nil
	switch x := st.(type) {
	case *bfj.FieldRead:
		if !in.kills.IsVolatileField(x.F) {
			in.access(out, s, keyVars, bfj.Read, expr.NewFieldPath(x.Y, x.F),
				fieldKey(x.Y, x.F, false), fieldKey(x.Y, x.F, true), []expr.Var{x.Y}, x.Pos)
		}
	case *bfj.FieldWrite:
		if !in.kills.IsVolatileField(x.F) {
			in.access(out, s, keyVars, bfj.Write, expr.NewFieldPath(x.Y, x.F),
				fieldKey(x.Y, x.F, false), fieldKey(x.Y, x.F, true), []expr.Var{x.Y}, x.Pos)
		} else if redcard {
			s.clear() // release-like ends the span
		}
	case *bfj.ArrayRead:
		in.access(out, s, keyVars, bfj.Read,
			expr.ArrayPath{Base: x.Y, Range: expr.Singleton(x.Z)},
			arrayKey(x.Y, x.Z, false), arrayKey(x.Y, x.Z, true), keyVarsOf(x.Y, x.Z), x.Pos)
	case *bfj.ArrayWrite:
		in.access(out, s, keyVars, bfj.Write,
			expr.ArrayPath{Base: x.Y, Range: expr.Singleton(x.Z)},
			arrayKey(x.Y, x.Z, false), arrayKey(x.Y, x.Z, true), keyVarsOf(x.Y, x.Z), x.Pos)
	case *bfj.Release, *bfj.Fork:
		if redcard {
			s.clear()
		}
	case *bfj.Call:
		if redcard && in.kills.Effects(x.M, len(x.Args)).MayRelease {
			s.clear()
		}
	case *bfj.If:
		var s1, s2 *span
		if s != nil {
			s1, s2 = s.clone(), s.clone()
		}
		nthen := in.block(x.Then, s1)
		nelse := in.block(x.Else, s2)
		out.Stmts = append(out.Stmts, &bfj.If{Cond: x.Cond, Then: nthen, Else: nelse})
		if s != nil {
			s1.intersect(s2)
			s.checked = s1.checked
		}
		return
	case *bfj.Loop:
		// Conservative: a loop body may release (ending spans) and its
		// back edge merges states; start the body with an empty span and
		// continue after the loop with an empty span.
		var inner *span
		if s != nil {
			inner = newSpan()
		}
		npre := in.block(x.Pre, inner)
		npost := in.block(x.Post, inner)
		out.Stmts = append(out.Stmts, &bfj.Loop{Pre: npre, Cond: x.Cond, Post: npost})
		if s != nil {
			s.clear()
		}
		return
	}
	// Acquire-like statements (acquire, join, volatile read) leave the
	// span alone: an earlier check still covers later accesses, and only
	// a release ends the covering range.  An assignment ends the entries
	// that mention the variable it assigns.
	out.Stmts = append(out.Stmts, bfj.CloneStmt(st))
	if v, ok := bfj.Def(st); ok && redcard {
		s.killVar(v, keyVars)
	}
}
