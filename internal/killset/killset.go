// Package killset computes the interprocedural method summaries used by
// the [Call] rule of the check-placement analysis: KillSetHistory and
// KillSetAnticipated (§3.4), extended with may-write effects that govern
// the invalidation of heap-alias facts (§5).
//
// The paper precomputes these with "a simple interprocedural dataflow
// analysis" over a 0-CFA call graph; BFJ method calls are resolved by
// name and arity (methods are monomorphic in practice; homonyms are
// merged conservatively).
package killset

import (
	"bigfoot/internal/bfj"
	"bigfoot/internal/expr"
)

// Effects summarizes the analysis-relevant side effects of running a
// method (transitively through calls, but not through forks: a forked
// body runs concurrently and synchronizes with the caller only at the
// fork itself, which is release-like, and at join, which is
// acquire-like).
type Effects struct {
	// MayAcquire: the method may perform an acquire-like operation
	// (lock acquire, join, volatile read).  Kills past accesses and all
	// anticipated accesses at the call site, and heap-alias facts.
	MayAcquire bool
	// MayRelease: the method may perform a release-like operation
	// (lock release, fork, volatile write).  Kills past accesses and
	// past checks at the call site.
	MayRelease bool
	// FieldsWritten lists fields the method may write (for alias-fact
	// invalidation at call sites).
	FieldsWritten map[string]bool
	// WritesArrays reports whether the method may write any array
	// element.
	WritesArrays bool
}

// Syncs reports whether the method has any synchronization effect.
func (e Effects) Syncs() bool { return e.MayAcquire || e.MayRelease }

// Table holds the merged effects of each call signature and the
// program's volatile fields.
type Table struct {
	effects  map[signature]Effects
	volatile map[string]bool
}

// signature is a call site's method name and argument count: every
// method with that name and arity is a candidate callee.
type signature struct {
	name  string
	arity int
}

// Compute builds the effect table for a program by fixpoint iteration
// over the call graph.
func Compute(p *bfj.Program) *Table {
	t := &Table{effects: map[signature]Effects{}, volatile: map[string]bool{}}
	for _, c := range p.Classes {
		for _, fd := range c.Fields {
			if fd.Volatile {
				t.volatile[fd.Name] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, m := range p.Methods() {
			sig := signature{m.Name, len(m.Params) - 1}
			cur := t.effects[sig]
			if next := t.scanBlock(m.Body, cur); !effectsEqual(cur, next) {
				t.effects[sig] = next
				changed = true
			}
		}
	}
	return t
}

// Effects returns the merged effects of all candidates for a call site.
// The result is shared: callers must not write its FieldsWritten.
func (t *Table) Effects(name string, nargs int) Effects {
	return t.effects[signature{name, nargs}]
}

// IsVolatileField reports whether any class declares field f volatile
// (conservative name-based resolution, since BFJ receivers are
// dynamically typed).
func (t *Table) IsVolatileField(f string) bool { return t.volatile[f] }

func (t *Table) scanBlock(b *bfj.Block, acc Effects) Effects {
	for _, s := range b.Stmts {
		acc = t.scanStmt(s, acc)
	}
	return acc
}

func (t *Table) scanStmt(s bfj.Stmt, acc Effects) Effects {
	switch x := s.(type) {
	case *bfj.Acquire:
		acc.MayAcquire = true
	case *bfj.Release:
		acc.MayRelease = true
	case *bfj.Fork:
		acc.MayRelease = true
	case *bfj.Join:
		acc.MayAcquire = true
	case *bfj.FieldRead:
		if t.IsVolatileField(x.F) {
			acc.MayAcquire = true
		}
	case *bfj.FieldWrite:
		if t.IsVolatileField(x.F) {
			acc.MayRelease = true
		} else {
			acc = cloneFields(acc)
			acc.FieldsWritten[x.F] = true
		}
	case *bfj.ArrayWrite:
		acc.WritesArrays = true
	case *bfj.Call:
		acc = union(acc, t.Effects(x.M, len(x.Args)))
	case *bfj.If:
		acc = t.scanBlock(x.Then, acc)
		acc = t.scanBlock(x.Else, acc)
	case *bfj.Loop:
		acc = t.scanBlock(x.Pre, acc)
		acc = t.scanBlock(x.Post, acc)
	}
	return acc
}

func cloneFields(e Effects) Effects {
	nf := make(map[string]bool, len(e.FieldsWritten)+1)
	for k := range e.FieldsWritten {
		nf[k] = true
	}
	e.FieldsWritten = nf
	return e
}

func union(a, b Effects) Effects {
	out := cloneFields(a)
	out.MayAcquire = a.MayAcquire || b.MayAcquire
	out.MayRelease = a.MayRelease || b.MayRelease
	out.WritesArrays = a.WritesArrays || b.WritesArrays
	for k := range b.FieldsWritten {
		out.FieldsWritten[k] = true
	}
	return out
}

func effectsEqual(a, b Effects) bool {
	if a.MayAcquire != b.MayAcquire || a.MayRelease != b.MayRelease || a.WritesArrays != b.WritesArrays {
		return false
	}
	if len(a.FieldsWritten) != len(b.FieldsWritten) {
		return false
	}
	for k := range a.FieldsWritten {
		if !b.FieldsWritten[k] {
			return false
		}
	}
	return true
}

// KillsAliasFact reports whether calling a method with these effects
// invalidates a heap-alias boolean fact mentioning the given expression.
// Acquire-like callees invalidate every alias fact (another thread's
// writes may become visible); otherwise only facts about fields/arrays
// the callee may write.
func (e Effects) KillsAliasFact(x expr.Expr) bool {
	if e.MayAcquire {
		return expr.Any(x, expr.IsHeapSel)
	}
	return expr.Any(x, func(x expr.Expr) bool {
		switch v := x.(type) {
		case expr.FieldSel:
			return e.FieldsWritten[v.Field]
		case expr.IndexSel:
			return e.WritesArrays
		}
		return false
	})
}
