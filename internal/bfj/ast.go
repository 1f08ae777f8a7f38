// Package bfj implements the BigFoot Java (BFJ) language of the paper:
// its abstract syntax, lexer, parser, pretty-printer, and static
// well-formedness checks.
//
// A BFJ program consists of class definitions, a single-threaded setup
// block that allocates the shared heap, and a collection of concurrent
// thread bodies that capture the setup block's variables (Fig. 5 of the
// paper, extended with the full-language features of §5: volatiles,
// fork/join, and read/write distinction downstream).
package bfj

import (
	"fmt"

	"bigfoot/internal/expr"
)

// Program is a complete BFJ program.
type Program struct {
	Classes []*Class
	Setup   *Block
	Threads []*Block
}

// Class declares fields (possibly volatile) and methods.
type Class struct {
	Name    string
	Fields  []Field
	Methods []*Method
}

// Field is a class field declaration.
type Field struct {
	Name     string
	Volatile bool
}

// FieldNames returns the names of the non-volatile fields in declaration
// order.
func (c *Class) FieldNames() []string {
	var out []string
	for _, f := range c.Fields {
		if !f.Volatile {
			out = append(out, f.Name)
		}
	}
	return out
}

// Method is a method declaration.  Params includes the implicit receiver
// "this" as the first element.  Ret is the returned variable, or "" if
// the method returns no value.
type Method struct {
	Name   string
	Class  string
	Params []expr.Var
	Body   *Block
	Ret    expr.Var
}

// QualifiedName returns Class.Name for diagnostics.
func (m *Method) QualifiedName() string { return m.Class + "." + m.Name }

// Block is a statement sequence.
type Block struct {
	Stmts []Stmt
}

// Stmt is a BFJ statement.
type Stmt interface {
	isStmt()
}

// AccessKind distinguishes read and write accesses/checks (§5).
type AccessKind int

// Access kinds. Write subsumes read for check coverage: a write check
// covers read and write accesses, a read check covers only reads.
const (
	Read AccessKind = iota
	Write
)

// String returns "read" or "write".
func (k AccessKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Covers reports whether a check of kind k covers an access of kind a.
func (k AccessKind) Covers(a AccessKind) bool { return k == Write || a == Read }

// Assign is x = e for a pure expression e (no heap selections; the
// parser hoists those into explicit reads).
type Assign struct {
	X expr.Var
	E expr.Expr
}

// Rename is the x <- y freshening operation of the paper ([Rename]),
// materialized as a copy in instrumented code.
type Rename struct {
	X, Y expr.Var
}

// New is x = new C.
type New struct {
	X     expr.Var
	Class string
}

// NewArray is x = newarray e, allocating an integer/ref array of length e.
type NewArray struct {
	X    expr.Var
	Size expr.Expr
}

// FieldRead is x = y.f.  Pos locates the access in the original source
// (zero if the AST was built programmatically).
type FieldRead struct {
	X, Y expr.Var
	F    string
	Pos  Pos
}

// FieldWrite is y.f = x (RHS restricted to a pure expression; the
// parser hoists its heap reads, so it is heap-free).
type FieldWrite struct {
	Y   expr.Var
	F   string
	E   expr.Expr
	Pos Pos
}

// ArrayRead is x = y[z].
type ArrayRead struct {
	X, Y expr.Var
	Z    expr.Expr
	Pos  Pos
}

// ArrayWrite is y[z] = e.
type ArrayWrite struct {
	Y   expr.Var
	Z   expr.Expr
	E   expr.Expr
	Pos Pos
}

// Acquire is acquire l.
type Acquire struct {
	L expr.Var
}

// Release is release l.
type Release struct {
	L expr.Var
}

// If is the conditional; Else may be an empty block but is never nil
// after parsing.
type If struct {
	Cond       expr.Expr
	Then, Else *Block
}

// Loop is the paper's mid-test loop: loop { Pre; if Cond break; Post }.
// The parser lowers the surface while/do/for forms to this shape.
type Loop struct {
	Pre  *Block
	Cond expr.Expr // break when true
	Post *Block
}

// Call is x = y.m(args) or (with X=="") y.m(args).  Args are pure
// expressions: the parser hoists their heap reads.
type Call struct {
	X    expr.Var
	Y    expr.Var
	M    string
	Args []expr.Expr
}

// Fork is x = fork y.m(args): start a new thread running y.m(args) and
// bind its handle to x.
type Fork struct {
	X    expr.Var
	Y    expr.Var
	M    string
	Args []expr.Expr
}

// Join is join x: wait for the forked thread bound to x.
type Join struct {
	X expr.Var
}

// CheckItem is one path within a check(C) statement, distinguished by
// access kind.  Positions is the sorted set of source positions of the
// accesses this item covers: a single-access check carries one position,
// a coalesced check carries the union of its constituents' positions of
// the item's own kind (a write check cites write sites).
// The slice is treated as immutable and may be shared across clones.
type CheckItem struct {
	Kind      AccessKind
	Path      expr.Path
	Positions []Pos
}

// Check is the explicit race check statement check(C).  Instrumentation
// inserts these; the parser also accepts them for golden tests.
type Check struct {
	Items []CheckItem
}

// Print writes its arguments to the interpreter's output (test support).
type Print struct {
	Args []expr.Expr
}

// Assert aborts interpretation if the condition is false (test support).
type Assert struct {
	Cond expr.Expr
}

func (*Assign) isStmt()     {}
func (*Rename) isStmt()     {}
func (*New) isStmt()        {}
func (*NewArray) isStmt()   {}
func (*FieldRead) isStmt()  {}
func (*FieldWrite) isStmt() {}
func (*ArrayRead) isStmt()  {}
func (*ArrayWrite) isStmt() {}
func (*Acquire) isStmt()    {}
func (*Release) isStmt()    {}
func (*If) isStmt()         {}
func (*Loop) isStmt()       {}
func (*Call) isStmt()       {}
func (*Fork) isStmt()       {}
func (*Join) isStmt()       {}
func (*Check) isStmt()      {}
func (*Print) isStmt()      {}
func (*Assert) isStmt()     {}

// Def returns the variable s assigns, if it assigns one: the target of
// an assignment, rename, allocation, field or array read, fork, or call
// with a result.  An if or a loop assigns only through the statements
// it holds, and Def does not look inside it.
func Def(s Stmt) (expr.Var, bool) {
	switch x := s.(type) {
	case *Assign:
		return x.X, true
	case *Rename:
		return x.X, true
	case *New:
		return x.X, true
	case *NewArray:
		return x.X, true
	case *FieldRead:
		return x.X, true
	case *ArrayRead:
		return x.X, true
	case *Fork:
		return x.X, true
	case *Call:
		return x.X, x.X != ""
	}
	return "", false
}

// LookupClass returns the class with the given name, or nil.
func (p *Program) LookupClass(name string) *Class {
	for _, c := range p.Classes {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// LookupMethod resolves class.method, or nil.
func (p *Program) LookupMethod(class, method string) *Method {
	c := p.LookupClass(class)
	if c == nil {
		return nil
	}
	for _, m := range c.Methods {
		if m.Name == method {
			return m
		}
	}
	return nil
}

// Methods returns all methods of all classes in declaration order.
func (p *Program) Methods() []*Method {
	var out []*Method
	for _, c := range p.Classes {
		out = append(out, c.Methods...)
	}
	return out
}

// Clone returns a deep copy of the program; instrumentation mutates its
// copy, never the original.
func (p *Program) Clone() *Program {
	q := &Program{Setup: CloneBlock(p.Setup)}
	for _, c := range p.Classes {
		nc := &Class{Name: c.Name, Fields: append([]Field(nil), c.Fields...)}
		for _, m := range c.Methods {
			nc.Methods = append(nc.Methods, &Method{
				Name:   m.Name,
				Class:  m.Class,
				Params: append([]expr.Var(nil), m.Params...),
				Body:   CloneBlock(m.Body),
				Ret:    m.Ret,
			})
		}
		q.Classes = append(q.Classes, nc)
	}
	for _, t := range p.Threads {
		q.Threads = append(q.Threads, CloneBlock(t))
	}
	return q
}

// CloneBlock deep-copies a block. Expressions are immutable and shared.
func CloneBlock(b *Block) *Block {
	if b == nil {
		return nil
	}
	nb := &Block{Stmts: make([]Stmt, len(b.Stmts))}
	for i, s := range b.Stmts {
		nb.Stmts[i] = CloneStmt(s)
	}
	return nb
}

// CloneStmt deep-copies a statement.
func CloneStmt(s Stmt) Stmt {
	switch x := s.(type) {
	case *Assign:
		c := *x
		return &c
	case *Rename:
		c := *x
		return &c
	case *New:
		c := *x
		return &c
	case *NewArray:
		c := *x
		return &c
	case *FieldRead:
		c := *x
		return &c
	case *FieldWrite:
		c := *x
		return &c
	case *ArrayRead:
		c := *x
		return &c
	case *ArrayWrite:
		c := *x
		return &c
	case *Acquire:
		c := *x
		return &c
	case *Release:
		c := *x
		return &c
	case *If:
		return &If{Cond: x.Cond, Then: CloneBlock(x.Then), Else: CloneBlock(x.Else)}
	case *Loop:
		return &Loop{Pre: CloneBlock(x.Pre), Cond: x.Cond, Post: CloneBlock(x.Post)}
	case *Call:
		c := *x
		c.Args = append([]expr.Expr(nil), x.Args...)
		return &c
	case *Fork:
		c := *x
		c.Args = append([]expr.Expr(nil), x.Args...)
		return &c
	case *Join:
		c := *x
		return &c
	case *Check:
		c := &Check{Items: append([]CheckItem(nil), x.Items...)}
		return c
	case *Print:
		c := &Print{Args: append([]expr.Expr(nil), x.Args...)}
		return c
	case *Assert:
		c := *x
		return &c
	}
	panic(fmt.Sprintf("bfj.CloneStmt: unknown statement %T", s))
}
