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

// Table maps qualified method names (Class.method) to their effects.
type Table struct {
	methods map[string]Effects
	// byName resolves a call-site name+arity to candidate methods.
	byName map[string][]*bfj.Method
	prog   *bfj.Program
}

// Compute builds the effect table for a program by fixpoint iteration
// over the call graph.
func Compute(p *bfj.Program) *Table {
	t := &Table{
		methods: map[string]Effects{},
		byName:  map[string][]*bfj.Method{},
		prog:    p,
	}
	for _, m := range p.Methods() {
		t.methods[m.QualifiedName()] = Effects{FieldsWritten: map[string]bool{}}
		key := callKey(m.Name, len(m.Params)-1)
		t.byName[key] = append(t.byName[key], m)
	}
	for changed := true; changed; {
		changed = false
		for _, m := range p.Methods() {
			cur := t.methods[m.QualifiedName()]
			next := t.scanBlock(m.Body, cur)
			if !effectsEqual(cur, next) {
				t.methods[m.QualifiedName()] = next
				changed = true
			}
		}
	}
	return t
}

func callKey(name string, arity int) string {
	return name + "/" + string(rune('0'+arity%10)) + string(rune('0'+arity/10))
}

// Callees returns the candidate methods for a call-site name and
// argument count.
func (t *Table) Callees(name string, nargs int) []*bfj.Method {
	return t.byName[callKey(name, nargs)]
}

// Effects returns the merged effects of all candidates for a call site.
func (t *Table) Effects(name string, nargs int) Effects {
	merged := Effects{FieldsWritten: map[string]bool{}}
	for _, m := range t.Callees(name, nargs) {
		merged = union(merged, t.methods[m.QualifiedName()])
	}
	return merged
}

// IsVolatileField reports whether any class declares field f volatile
// (conservative name-based resolution, since BFJ receivers are
// dynamically typed).
func (t *Table) IsVolatileField(f string) bool {
	for _, c := range t.prog.Classes {
		for _, fd := range c.Fields {
			if fd.Name == f && fd.Volatile {
				return true
			}
		}
	}
	return false
}

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
