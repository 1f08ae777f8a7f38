// Package expr defines the symbolic expressions, heap paths, and strided
// ranges used throughout BigFoot's static analysis.
//
// Expressions are pure integer/boolean terms over method-local variables,
// extended with heap selections (y.f, y[z]) so that alias facts such as
// "x = y.f" can be recorded in analysis histories.  Paths name the heap
// locations that race checks cover: a field path "x.f" (possibly a
// coalesced group "x.f/g/h") or an array path "x[lo..hi:k]" denoting the
// strided index set {lo + i*k : lo <= lo+i*k < hi}.
package expr

import (
	"fmt"
	"sort"
	"strconv"
)

// Var is a method-local variable name.
type Var string

// Op enumerates the binary and unary operators of the expression language.
type Op int

// Operator constants. Comparison operators evaluate to booleans; the
// arithmetic operators to integers.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot // unary
	OpNeg // unary
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||", OpNot: "!", OpNeg: "-",
}

// String returns the source-level spelling of the operator.
func (o Op) String() string { return opNames[o] }

// Expr is a symbolic expression. Implementations are immutable; all
// transformation functions return new expressions.
type Expr interface {
	// String renders the expression in BFJ surface syntax.
	String() string
	isExpr()
}

// IntLit is an integer literal.
type IntLit struct{ Val int64 }

// BoolLit is a boolean literal.
type BoolLit struct{ Val bool }

// VarRef references a local variable.
type VarRef struct{ Name Var }

// Binary applies a binary operator.
type Binary struct {
	Op   Op
	L, R Expr
}

// Unary applies OpNot or OpNeg.
type Unary struct {
	Op Op
	X  Expr
}

// FieldSel is the heap selection y.f, valid only inside analysis facts
// (alias expressions), never as a runtime expression.
type FieldSel struct {
	Base  Var
	Field string
}

// IndexSel is the heap selection y[z] with a variable or literal index,
// valid only inside analysis facts.
type IndexSel struct {
	Base  Var
	Index Expr
}

// LenOf is the symbolic array length "alen(y)". It appears in analysis
// facts (e.g. loop bounds i < alen(a)) and in instrumented check ranges.
type LenOf struct{ Base Var }

func (IntLit) isExpr()   {}
func (BoolLit) isExpr()  {}
func (VarRef) isExpr()   {}
func (Binary) isExpr()   {}
func (Unary) isExpr()    {}
func (FieldSel) isExpr() {}
func (IndexSel) isExpr() {}
func (LenOf) isExpr()    {}

func (e IntLit) String() string   { return render(e) }
func (e BoolLit) String() string  { return render(e) }
func (e VarRef) String() string   { return string(e.Name) }
func (e Binary) String() string   { return render(e) }
func (e Unary) String() string    { return render(e) }
func (e FieldSel) String() string { return render(e) }
func (e IndexSel) String() string { return render(e) }
func (e LenOf) String() string    { return render(e) }

// render is String through Append, into a stack buffer for the common
// short expression.
func render(e Expr) string {
	var buf [64]byte
	return string(Append(buf[:0], e))
}

// Append appends e.String() to b.  Every rendering in this package (and
// the analysis's fact and cache keys built on it) writes through here.
func Append(b []byte, e Expr) []byte {
	switch x := e.(type) {
	case IntLit:
		return strconv.AppendInt(b, x.Val, 10)
	case BoolLit:
		return strconv.AppendBool(b, x.Val)
	case VarRef:
		return append(b, x.Name...)
	case Binary:
		b = append(b, '(')
		b = Append(b, x.L)
		b = append(b, ' ')
		b = append(b, x.Op.String()...)
		b = append(b, ' ')
		b = Append(b, x.R)
		return append(b, ')')
	case Unary:
		return appendParen(append(b, x.Op.String()...), x.X)
	case FieldSel:
		return append(append(append(b, x.Base...), '.'), x.Field...)
	case IndexSel:
		return append(Append(append(append(b, x.Base...), '['), x.Index), ']')
	case LenOf:
		return append(append(append(b, "alen("...), x.Base...), ')')
	}
	return fmt.Appendf(b, "%s", e)
}

// appendParen appends e, parenthesized unless it is atomic.
func appendParen(b []byte, e Expr) []byte {
	switch e.(type) {
	case IntLit, BoolLit, VarRef, FieldSel, IndexSel, LenOf:
		return Append(b, e)
	}
	return append(Append(append(b, '('), e), ')')
}

// Convenience constructors.

// I builds an integer literal.
func I(v int64) IntLit { return IntLit{v} }

// B builds a boolean literal.
func B(v bool) BoolLit { return BoolLit{v} }

// V builds a variable reference.
func V(name Var) VarRef { return VarRef{name} }

// Bin builds a binary expression.
func Bin(op Op, l, r Expr) Binary { return Binary{op, l, r} }

// Add builds l+r.
func Add(l, r Expr) Expr { return Binary{OpAdd, l, r} }

// Sub builds l-r.
func Sub(l, r Expr) Expr { return Binary{OpSub, l, r} }

// Mul builds l*r.
func Mul(l, r Expr) Expr { return Binary{OpMul, l, r} }

// Eq builds l==r.
func Eq(l, r Expr) Expr { return Binary{OpEq, l, r} }

// Lt builds l<r.
func Lt(l, r Expr) Expr { return Binary{OpLt, l, r} }

// Le builds l<=r.
func Le(l, r Expr) Expr { return Binary{OpLe, l, r} }

// Ge builds l>=r.
func Ge(l, r Expr) Expr { return Binary{OpGe, l, r} }

// Not builds the logical negation of e, simplifying comparisons in place
// (e.g. Not(a<b) is a>=b) so that negated branch conditions remain in the
// linear fragment the entailment solver understands.
func Not(e Expr) Expr {
	switch x := e.(type) {
	case BoolLit:
		return BoolLit{!x.Val}
	case Unary:
		if x.Op == OpNot {
			return x.X
		}
	case Binary:
		switch x.Op {
		case OpEq:
			return Binary{OpNe, x.L, x.R}
		case OpNe:
			return Binary{OpEq, x.L, x.R}
		case OpLt:
			return Binary{OpGe, x.L, x.R}
		case OpLe:
			return Binary{OpGt, x.L, x.R}
		case OpGt:
			return Binary{OpLe, x.L, x.R}
		case OpGe:
			return Binary{OpLt, x.L, x.R}
		case OpOr:
			// De Morgan keeps conjunctions splittable in histories.
			return Binary{OpAnd, Not(x.L), Not(x.R)}
		}
	}
	return Unary{OpNot, e}
}

// FreeVars appends the variables mentioned in e to the set vs.
func FreeVars(e Expr, vs map[Var]bool) {
	switch x := e.(type) {
	case VarRef:
		vs[x.Name] = true
	case Binary:
		FreeVars(x.L, vs)
		FreeVars(x.R, vs)
	case Unary:
		FreeVars(x.X, vs)
	case FieldSel:
		vs[x.Base] = true
	case IndexSel:
		vs[x.Base] = true
		FreeVars(x.Index, vs)
	case LenOf:
		vs[x.Base] = true
	}
}

// Mentions reports whether e mentions the variable v.
func Mentions(e Expr, v Var) bool {
	switch x := e.(type) {
	case VarRef:
		return x.Name == v
	case Binary:
		return Mentions(x.L, v) || Mentions(x.R, v)
	case Unary:
		return Mentions(x.X, v)
	case FieldSel:
		return x.Base == v
	case IndexSel:
		return x.Base == v || Mentions(x.Index, v)
	case LenOf:
		return x.Base == v
	}
	return false
}

// Any reports whether f holds for e or for any of its subexpressions:
// the operands of a Binary or Unary and the index of an IndexSel.
func Any(e Expr, f func(Expr) bool) bool {
	if f(e) {
		return true
	}
	switch x := e.(type) {
	case Binary:
		return Any(x.L, f) || Any(x.R, f)
	case Unary:
		return Any(x.X, f)
	case IndexSel:
		return Any(x.Index, f)
	}
	return false
}

// IsHeapSel reports whether e is a heap selection y.f or y[z].  alen(y)
// is not one: an array's length never changes.
func IsHeapSel(e Expr) bool {
	switch e.(type) {
	case FieldSel, IndexSel:
		return true
	}
	return false
}

// Subst returns e with every occurrence of variable v replaced by r.
// Substituting into the base of a heap selection or alen requires r to be
// a variable; otherwise the result is marked ill-formed via ok=false and
// callers must drop the containing fact (as the paper's [Assign] rule
// drops syntactically ill-formed anticipated paths).  An e that does not
// mention v comes back as is.
func Subst(e Expr, v Var, r Expr) (Expr, bool) {
	s, _, ok := subst(e, v, r)
	return s, ok
}

// subst is Subst that also reports whether e mentions v; it returns an
// e that does not as is.
func subst(e Expr, v Var, r Expr) (s Expr, mentions, ok bool) {
	switch x := e.(type) {
	case IntLit, BoolLit:
	case VarRef:
		if x.Name == v {
			return r, true, true
		}
	case Binary:
		l, lm, lok := subst(x.L, v, r)
		rr, rm, rok := subst(x.R, v, r)
		if lm || rm {
			return Binary{x.Op, l, rr}, true, lok && rok
		}
	case Unary:
		xx, m, ok := subst(x.X, v, r)
		if m {
			return Unary{x.Op, xx}, true, ok
		}
	case FieldSel:
		if x.Base == v {
			if vr, isVar := r.(VarRef); isVar {
				return FieldSel{vr.Name, x.Field}, true, true
			}
			return e, true, false
		}
	case IndexSel:
		idx, m, ok := subst(x.Index, v, r)
		if x.Base == v {
			vr, isVar := r.(VarRef)
			if !isVar {
				return e, true, false
			}
			return IndexSel{vr.Name, idx}, true, ok
		}
		if m {
			return IndexSel{x.Base, idx}, true, ok
		}
	case LenOf:
		if x.Base == v {
			if vr, isVar := r.(VarRef); isVar {
				return LenOf{vr.Name}, true, true
			}
			return e, true, false
		}
	default:
		panic(fmt.Sprintf("expr.Subst: unknown expression %T", e))
	}
	return e, false, true
}

// EqualSyntax reports structural equality of two expressions.
func EqualSyntax(a, b Expr) bool {
	switch x := a.(type) {
	case IntLit:
		y, ok := b.(IntLit)
		return ok && x.Val == y.Val
	case BoolLit:
		y, ok := b.(BoolLit)
		return ok && x.Val == y.Val
	case VarRef:
		y, ok := b.(VarRef)
		return ok && x.Name == y.Name
	case Binary:
		y, ok := b.(Binary)
		return ok && x.Op == y.Op && EqualSyntax(x.L, y.L) && EqualSyntax(x.R, y.R)
	case Unary:
		y, ok := b.(Unary)
		return ok && x.Op == y.Op && EqualSyntax(x.X, y.X)
	case FieldSel:
		y, ok := b.(FieldSel)
		return ok && x.Base == y.Base && x.Field == y.Field
	case IndexSel:
		y, ok := b.(IndexSel)
		return ok && x.Base == y.Base && EqualSyntax(x.Index, y.Index)
	case LenOf:
		y, ok := b.(LenOf)
		return ok && x.Base == y.Base
	}
	return false
}

// ---------------------------------------------------------------------------
// Strided ranges and paths
// ---------------------------------------------------------------------------

// StridedRange denotes the closed-open strided index set
// {Lo + i*Step : Lo <= Lo+i*Step < Hi, i >= 0}.  Step is a positive
// integer expression; for the common contiguous case Step is IntLit{1}.
type StridedRange struct {
	Lo, Hi Expr
	Step   Expr
}

// Singleton builds the one-element range e..e+1:1.
func Singleton(e Expr) StridedRange {
	return StridedRange{Lo: e, Hi: Add(e, I(1)), Step: I(1)}
}

// Contiguous builds lo..hi:1.
func Contiguous(lo, hi Expr) StridedRange {
	return StridedRange{Lo: lo, Hi: hi, Step: I(1)}
}

// IsSingleton reports whether the range is syntactically e..e+1:1 and
// returns the single index expression.
func (r StridedRange) IsSingleton() (Expr, bool) {
	if !isOne(r.Step) {
		return nil, false
	}
	if b, ok := r.Hi.(Binary); ok && b.Op == OpAdd {
		if lit, ok := b.R.(IntLit); ok && lit.Val == 1 && EqualSyntax(b.L, r.Lo) {
			return r.Lo, true
		}
	}
	return nil, false
}

func isOne(e Expr) bool {
	l, ok := e.(IntLit)
	return ok && l.Val == 1
}

// String renders the range in BFJ syntax: "lo..hi" for stride 1,
// "lo..hi:k" otherwise, or the bare index for singletons.
func (r StridedRange) String() string {
	var buf [64]byte
	return string(r.Append(buf[:0]))
}

// Append appends r.String() to b.
func (r StridedRange) Append(b []byte) []byte {
	if e, ok := r.IsSingleton(); ok {
		return Append(b, e)
	}
	b = Append(append(Append(b, r.Lo), ".."...), r.Hi)
	if isOne(r.Step) {
		return b
	}
	return Append(append(b, ':'), r.Step)
}

// Equal reports syntactic equality of ranges.
func (r StridedRange) Equal(o StridedRange) bool {
	return EqualSyntax(r.Lo, o.Lo) && EqualSyntax(r.Hi, o.Hi) && EqualSyntax(r.Step, o.Step)
}

// Subst substitutes v:=e in all three components.
func (r StridedRange) Subst(v Var, e Expr) (StridedRange, bool) {
	lo, ok1 := Subst(r.Lo, v, e)
	hi, ok2 := Subst(r.Hi, v, e)
	st, ok3 := Subst(r.Step, v, e)
	return StridedRange{lo, hi, st}, ok1 && ok2 && ok3
}

// Path names a set of heap locations to be checked: either a (possibly
// coalesced) field group on an object, or a strided range of an array.
type Path interface {
	// Designator returns the local variable holding the object/array.
	Designator() Var
	// String renders the path in BFJ syntax.
	String() string
	// Append appends String() to b.
	Append(b []byte) []byte
	isPath()
}

// FieldPath is x.f or the coalesced group x.f1/f2/.../fn.  Fields is kept
// sorted and duplicate-free.
type FieldPath struct {
	Base   Var
	Fields []string
}

// ArrayPath is x[r] for a strided range r.
type ArrayPath struct {
	Base  Var
	Range StridedRange
}

func (FieldPath) isPath() {}
func (ArrayPath) isPath() {}

// Designator returns the object variable.
func (p FieldPath) Designator() Var { return p.Base }

// Designator returns the array variable.
func (p ArrayPath) Designator() Var { return p.Base }

func (p FieldPath) String() string {
	var buf [64]byte
	return string(p.Append(buf[:0]))
}

func (p ArrayPath) String() string {
	var buf [64]byte
	return string(p.Append(buf[:0]))
}

// Append appends p.String() to b.
func (p FieldPath) Append(b []byte) []byte {
	b = append(append(b, p.Base...), '.')
	for i, f := range p.Fields {
		if i > 0 {
			b = append(b, '/')
		}
		b = append(b, f...)
	}
	return b
}

// Append appends p.String() to b.
func (p ArrayPath) Append(b []byte) []byte {
	return append(p.Range.Append(append(append(b, p.Base...), '[')), ']')
}

// NewFieldPath builds a normalized field path over the given fields.
func NewFieldPath(base Var, fields ...string) FieldPath {
	fs := append([]string(nil), fields...)
	sort.Strings(fs)
	out := fs[:0]
	for i, f := range fs {
		if i == 0 || f != fs[i-1] {
			out = append(out, f)
		}
	}
	return FieldPath{Base: base, Fields: out}
}

// EqualPath reports syntactic equality of paths.
func EqualPath(a, b Path) bool {
	switch x := a.(type) {
	case FieldPath:
		y, ok := b.(FieldPath)
		if !ok || x.Base != y.Base || len(x.Fields) != len(y.Fields) {
			return false
		}
		for i := range x.Fields {
			if x.Fields[i] != y.Fields[i] {
				return false
			}
		}
		return true
	case ArrayPath:
		y, ok := b.(ArrayPath)
		return ok && x.Base == y.Base && x.Range.Equal(y.Range)
	}
	return false
}

// SubstPath substitutes v:=e inside the path.  Substitution into the
// designator requires e to be a variable; ok=false means the resulting
// path is ill-formed and the containing fact must be dropped.
func SubstPath(p Path, v Var, e Expr) (Path, bool) {
	switch x := p.(type) {
	case FieldPath:
		if x.Base == v {
			if vr, isVar := e.(VarRef); isVar {
				return FieldPath{vr.Name, x.Fields}, true
			}
			return p, false
		}
		return p, true
	case ArrayPath:
		r, ok := x.Range.Subst(v, e)
		if x.Base == v {
			vr, isVar := e.(VarRef)
			if !isVar {
				return p, false
			}
			return ArrayPath{vr.Name, r}, ok
		}
		return ArrayPath{x.Base, r}, ok
	}
	panic("expr.SubstPath: unknown path kind")
}

// PathMentions reports whether p mentions variable v.
func PathMentions(p Path, v Var) bool {
	switch x := p.(type) {
	case FieldPath:
		return x.Base == v
	case ArrayPath:
		return x.Base == v || Mentions(x.Range.Lo, v) || Mentions(x.Range.Hi, v) || Mentions(x.Range.Step, v)
	}
	return false
}
