package bfj

import (
	"fmt"

	"bigfoot/internal/expr"
)

// CheckProgram validates static well-formedness: class/field/method
// references resolve, call arities match, return statements appear only
// at the end of method bodies, and setup/thread blocks do not return.
// Field and method name resolution is by class of the receiver at call
// sites, which BFJ cannot know statically for arbitrary variables, so
// name/arity checks are performed per candidate: a call y.m(a1..an) is
// well-formed if at least one class declares m with matching arity.
func CheckProgram(p *Program) error {
	classes := map[string]*Class{}
	for _, c := range p.Classes {
		if _, dup := classes[c.Name]; dup {
			return fmt.Errorf("duplicate class %q", c.Name)
		}
		classes[c.Name] = c
		fields := map[string]bool{}
		for _, f := range c.Fields {
			if fields[f.Name] {
				return fmt.Errorf("class %s: duplicate field %q", c.Name, f.Name)
			}
			fields[f.Name] = true
		}
		methods := map[string]bool{}
		for _, m := range c.Methods {
			if methods[m.Name] {
				return fmt.Errorf("class %s: duplicate method %q", c.Name, m.Name)
			}
			methods[m.Name] = true
		}
	}

	chk := &wfChecker{prog: p, classes: classes}
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			if err := chk.block(m.Body, true); err != nil {
				return fmt.Errorf("method %s: %w", m.QualifiedName(), err)
			}
		}
	}
	if p.Setup != nil {
		if err := chk.block(p.Setup, false); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	for i, t := range p.Threads {
		if err := chk.block(t, false); err != nil {
			return fmt.Errorf("thread %d: %w", i, err)
		}
	}
	return nil
}

type wfChecker struct {
	prog    *Program
	classes map[string]*Class
}

func (w *wfChecker) block(b *Block, inMethod bool) error {
	for _, s := range b.Stmts {
		if err := w.stmt(s, inMethod); err != nil {
			return err
		}
	}
	return nil
}

func (w *wfChecker) resolvable(m string, nargs int) bool {
	for _, c := range w.prog.Classes {
		for _, mm := range c.Methods {
			if mm.Name == m && len(mm.Params) == nargs+1 {
				return true
			}
		}
	}
	return false
}

func (w *wfChecker) stmt(s Stmt, inMethod bool) error {
	switch x := s.(type) {
	case *retMarker:
		return fmt.Errorf("return is only allowed as the final statement of a method body")
	case *New:
		if _, ok := w.classes[x.Class]; !ok {
			return fmt.Errorf("unknown class %q in new", x.Class)
		}
	case *Call:
		if !w.resolvable(x.M, len(x.Args)) {
			return fmt.Errorf("no class declares method %q with %d parameters", x.M, len(x.Args))
		}
	case *Fork:
		if !w.resolvable(x.M, len(x.Args)) {
			return fmt.Errorf("no class declares method %q with %d parameters (fork)", x.M, len(x.Args))
		}
	case *If:
		if err := w.block(x.Then, inMethod); err != nil {
			return err
		}
		return w.block(x.Else, inMethod)
	case *Loop:
		if err := w.block(x.Pre, inMethod); err != nil {
			return err
		}
		return w.block(x.Post, inMethod)
	case *Assign:
		if expr.Any(x.E, expr.IsHeapSel) {
			return fmt.Errorf("internal: heap selection survived hoisting in %s", Format(s))
		}
	}
	return nil
}
