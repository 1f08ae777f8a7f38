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
	"maps"

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
func EveryAccess(prog *bfj.Program) (*bfj.Program, Stats) { return place(prog, false) }

// RedCard inserts a check before each heap access unless a covering
// check on the same path already happened in the current release-free
// span.
func RedCard(prog *bfj.Program) (*bfj.Program, Stats) { return place(prog, true) }

// place instruments every method and thread body of a copy of prog.
// With spans (RedCard) each body starts an empty span; without
// (EveryAccess) the walk keeps none.
func place(prog *bfj.Program, spans bool) (*bfj.Program, Stats) {
	out := prog.Clone()
	in := &inserter{kills: killset.Compute(out)}
	body := func(b *bfj.Block) *bfj.Block {
		var s span
		if spans {
			s = span{}
		}
		return in.block(b, s)
	}
	for _, m := range out.Methods() {
		m.Body = body(m.Body)
	}
	for i, t := range out.Threads {
		out.Threads[i] = body(t)
	}
	return out, in.stats
}

type inserter struct {
	kills *killset.Table
	stats Stats
}

// span maps each check made in the current release-free span to the
// path it checked, so that an assignment can end the entries whose path
// mentions the assigned variable.  A nil span records nothing.
type span map[spanKey]expr.Path

// spanKey is a check's kind and its path, an array index in linear
// normal form; a write check also covers reads of its path.
type spanKey struct {
	write bool
	path  string
}

// pathKey renders p for a spanKey.
func pathKey(p expr.Path) string {
	if a, ok := p.(expr.ArrayPath); ok {
		return string(a.Base) + "[" + expr.Linearize(a.Range.Lo).Key() + "]"
	}
	return p.String()
}

// access emits a check of the given kind on path before the access at
// pos, unless the span already holds a covering check.
func (in *inserter) access(out *bfj.Block, s span, kind bfj.AccessKind, path expr.Path, pos bfj.Pos) {
	if s != nil {
		k := pathKey(path)
		_, w := s[spanKey{true, k}]
		_, r := s[spanKey{false, k}]
		if w || r && kind == bfj.Read {
			in.stats.ChecksSuppressed++
			return
		}
		s[spanKey{kind == bfj.Write, k}] = path
	}
	var poss []bfj.Pos
	if pos.IsValid() {
		poss = []bfj.Pos{pos}
	}
	out.Stmts = append(out.Stmts, &bfj.Check{Items: []bfj.CheckItem{{Kind: kind, Path: path, Positions: poss}}})
	in.stats.ChecksInserted++
}

func (in *inserter) block(b *bfj.Block, s span) *bfj.Block {
	out := &bfj.Block{}
	for _, st := range b.Stmts {
		in.stmt(st, out, s)
	}
	return out
}

func (in *inserter) stmt(st bfj.Stmt, out *bfj.Block, s span) {
	switch x := st.(type) {
	case *bfj.FieldRead:
		if !in.kills.IsVolatileField(x.F) {
			in.access(out, s, bfj.Read, expr.NewFieldPath(x.Y, x.F), x.Pos)
		}
	case *bfj.FieldWrite:
		if in.kills.IsVolatileField(x.F) {
			clear(s) // release-like ends the span
		} else {
			in.access(out, s, bfj.Write, expr.NewFieldPath(x.Y, x.F), x.Pos)
		}
	case *bfj.ArrayRead:
		in.access(out, s, bfj.Read, expr.ArrayPath{Base: x.Y, Range: expr.Singleton(x.Z)}, x.Pos)
	case *bfj.ArrayWrite:
		in.access(out, s, bfj.Write, expr.ArrayPath{Base: x.Y, Range: expr.Singleton(x.Z)}, x.Pos)
	case *bfj.Release, *bfj.Fork:
		clear(s)
	case *bfj.Call:
		if in.kills.Effects(x.M, len(x.Args)).MayRelease {
			clear(s)
		}
	case *bfj.If:
		s1, s2 := maps.Clone(s), maps.Clone(s)
		out.Stmts = append(out.Stmts, &bfj.If{Cond: x.Cond, Then: in.block(x.Then, s1), Else: in.block(x.Else, s2)})
		// Past the if, a check covers an access only if both branches
		// kept it.
		clear(s)
		for k, p := range s1 {
			if _, ok := s2[k]; ok {
				s[k] = p
			}
		}
		return
	case *bfj.Loop:
		// Conservative: a loop body may release (ending spans) and its
		// back edge merges states; start the body with an empty span and
		// continue after the loop with an empty span.
		clear(s)
		out.Stmts = append(out.Stmts, &bfj.Loop{Pre: in.block(x.Pre, s), Cond: x.Cond, Post: in.block(x.Post, s)})
		clear(s)
		return
	}
	// Acquire-like statements (acquire, join, volatile read) leave the
	// span alone: an earlier check still covers later accesses, and only
	// a release ends the covering range.  An assignment ends the entries
	// that mention the variable it assigns.
	out.Stmts = append(out.Stmts, bfj.CloneStmt(st))
	if v, ok := bfj.Def(st); ok {
		maps.DeleteFunc(s, func(_ spanKey, p expr.Path) bool { return expr.PathMentions(p, v) })
	}
}
