package interp

import (
	"fmt"

	"bigfoot/internal/expr"
)

// Expressions compile for the type their consumer needs.  An operand of
// arithmetic or of an ordering comparison, an array index, a newarray
// size and a check bound read an int64 (iexpr); a condition and an
// operand of !, && or || read a bool (bexpr), and x = <operator> stores
// the typed result.  Only a consumer that keeps a value of any kind — a
// field or array write, a call or fork argument, print, == and != —
// reads a Value (cexpr), and an operator's typed result is boxed once
// for it.  Each typed closure makes its consumer's kind check where it
// reads the value, so a failure says what the Value-returning evaluator
// said: the same expression named, the operands evaluated in the same
// order (the divisor before the dividend), an unassigned local reported
// first.
//
// A local or constant operand of a binary operator is read in place by
// the operator's closure, not through a closure of its own, for the
// operand shapes that carry the load of the evaluation workloads:
// local⊕local, local⊕const, local⊕expr, expr⊕local and expr⊕const for
// arithmetic, local⊕local and local⊕const for comparisons, == and !=
// (CHANGES.md records the census behind each).  Every other shape takes
// the generic closures.

// iexpr evaluates an expression for a consumer that needs an integer.
type iexpr func(t *Thread) int64

// bexpr evaluates an expression for a consumer that needs a boolean.
type bexpr func(t *Thread) bool

// kindOf is the kind e has whenever its evaluation succeeds: KindInt or
// KindBool for a literal or an operator, kindUndef for a local, whose
// kind only run time knows, and for a node no evaluator accepts.
func kindOf(e expr.Expr) ValueKind {
	switch x := e.(type) {
	case expr.IntLit, expr.LenOf:
		return KindInt
	case expr.BoolLit:
		return KindBool
	case expr.Unary:
		switch x.Op {
		case expr.OpNeg:
			return KindInt
		case expr.OpNot:
			return KindBool
		}
	case expr.Binary:
		switch x.Op {
		case expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpMod:
			return KindInt
		case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe, expr.OpAnd, expr.OpOr:
			return KindBool
		}
	}
	return kindUndef
}

// intSlot reads local slot i for an integer consumer named what.
func (t *Thread) intSlot(i int, what fmt.Stringer) int64 {
	v := t.cur[i]
	if v.Kind != KindInt {
		failIntSlot(t, i, what)
	}
	return v.I
}

// boolSlot reads local slot i for a boolean consumer named what.
func (t *Thread) boolSlot(i int, what fmt.Stringer) bool {
	v := t.cur[i]
	if v.Kind != KindBool {
		failBoolSlot(t, i, what)
	}
	return v.I != 0
}

// failIntSlot and failBoolSlot report a local read by a consumer of
// another kind: slotGet fails if it is unassigned, failExpected
// otherwise.  Each takes no more arguments than boolSlot's inlining
// budget leaves room for.

//go:noinline
func failIntSlot(t *Thread, slot int, what fmt.Stringer) {
	failExpected("integer", t.slotGet(slot), what)
}

//go:noinline
func failBoolSlot(t *Thread, slot int, what fmt.Stringer) {
	failExpected("boolean", t.slotGet(slot), what)
}

// compileExpr compiles e for a consumer that takes a Value of any kind.
func (c *compiler) compileExpr(e expr.Expr, sc *scope) cexpr {
	if v, ok := literal(e); ok {
		return func(*Thread) Value { return v }
	}
	if x, ok := e.(expr.VarRef); ok {
		slot := sc.slot(x.Name)
		return func(t *Thread) Value { return t.slotGet(slot) }
	}
	switch kindOf(e) {
	case KindInt:
		ie := c.compileInt(e, sc, e)
		return func(t *Thread) Value { return IntVal(ie(t)) }
	case KindBool:
		be := c.compileBool(e, sc, e)
		return func(t *Thread) Value { return BoolVal(be(t)) }
	}
	return func(*Thread) Value {
		fail("cannot evaluate expression %s", e)
		return Value{}
	}
}

// literal returns the value of an integer or boolean literal.
func literal(e expr.Expr) (Value, bool) {
	switch x := e.(type) {
	case expr.IntLit:
		return IntVal(x.Val), true
	case expr.BoolLit:
		return BoolVal(x.Val), true
	}
	return Value{}, false
}

// compileInt compiles e for a consumer that needs an integer and is
// named what when e's value is of another kind.
func (c *compiler) compileInt(e expr.Expr, sc *scope, what fmt.Stringer) iexpr {
	switch x := e.(type) {
	case expr.IntLit:
		n := x.Val
		return func(*Thread) int64 { return n }
	case expr.VarRef:
		slot := sc.slot(x.Name)
		return func(t *Thread) int64 { return t.intSlot(slot, what) }
	case expr.LenOf:
		slot, name := sc.slot(x.Base), string(x.Base)
		return func(t *Thread) int64 { return int64(getArr(t, slot, name).Len()) }
	case expr.Unary:
		if x.Op == expr.OpNeg {
			inner := c.compileInt(x.X, sc, x)
			return func(t *Thread) int64 { return -inner(t) }
		}
	case expr.Binary:
		if kindOf(x) == KindInt {
			return c.compileArith(x, sc)
		}
	}
	v := c.compileExpr(e, sc)
	return func(t *Thread) int64 { return asInt(v(t), what) }
}

// compileBool compiles e for a consumer that needs a boolean and is
// named what when e's value is of another kind.
func (c *compiler) compileBool(e expr.Expr, sc *scope, what fmt.Stringer) bexpr {
	switch x := e.(type) {
	case expr.BoolLit:
		b := x.Val
		return func(*Thread) bool { return b }
	case expr.VarRef:
		slot := sc.slot(x.Name)
		return func(t *Thread) bool { return t.boolSlot(slot, what) }
	case expr.Unary:
		if x.Op == expr.OpNot {
			inner := c.compileBool(x.X, sc, x)
			return func(t *Thread) bool { return !inner(t) }
		}
	case expr.Binary:
		switch x.Op {
		case expr.OpAnd:
			l, r := c.compileBool(x.L, sc, x), c.compileBool(x.R, sc, x)
			return func(t *Thread) bool { return l(t) && r(t) }
		case expr.OpOr:
			l, r := c.compileBool(x.L, sc, x), c.compileBool(x.R, sc, x)
			return func(t *Thread) bool { return l(t) || r(t) }
		case expr.OpEq, expr.OpNe:
			return c.compileEq(x, sc)
		case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			return c.compileCompare(x, sc)
		}
	}
	v := c.compileExpr(e, sc)
	return func(t *Thread) bool { return asBool(v(t), what) }
}

// operand is an integer operand of a binary operator: e evaluates it,
// and slot (a local) or n (a constant) let the operator read it in
// place instead.
type operand struct {
	slot  int // the local's slot, or -1
	konst bool
	n     int64
	e     iexpr
}

func (c *compiler) operand(e expr.Expr, sc *scope, what fmt.Stringer) operand {
	o := operand{slot: -1, e: c.compileInt(e, sc, what)}
	switch x := e.(type) {
	case expr.VarRef:
		o.slot = sc.slot(x.Name)
	case expr.IntLit:
		o.konst, o.n = true, x.Val
	}
	return o
}

// compileArith compiles +, -, *, / and %.  Division and modulo
// evaluate the divisor first and fail on zero before the dividend is
// read.
func (c *compiler) compileArith(x expr.Binary, sc *scope) iexpr {
	var what fmt.Stringer = x
	l, r := c.operand(x.L, sc, what), c.operand(x.R, sc, what)
	a, b, n, le, re := l.slot, r.slot, r.n, l.e, r.e
	switch {
	case a >= 0 && b >= 0:
		switch x.Op {
		case expr.OpAdd:
			return func(t *Thread) int64 { return t.intSlot(a, what) + t.intSlot(b, what) }
		case expr.OpSub:
			return func(t *Thread) int64 { return t.intSlot(a, what) - t.intSlot(b, what) }
		case expr.OpMul:
			return func(t *Thread) int64 { return t.intSlot(a, what) * t.intSlot(b, what) }
		}
	case a >= 0 && r.konst:
		switch {
		case x.Op == expr.OpAdd:
			return func(t *Thread) int64 { return t.intSlot(a, what) + n }
		case x.Op == expr.OpSub:
			return func(t *Thread) int64 { return t.intSlot(a, what) - n }
		case x.Op == expr.OpMul:
			return func(t *Thread) int64 { return t.intSlot(a, what) * n }
		case x.Op == expr.OpDiv && n != 0:
			return func(t *Thread) int64 { return expr.FloorDiv(t.intSlot(a, what), n) }
		case x.Op == expr.OpMod && n != 0:
			return func(t *Thread) int64 { return expr.FloorMod(t.intSlot(a, what), n) }
		}
	case a >= 0:
		switch x.Op {
		case expr.OpAdd:
			return func(t *Thread) int64 { return t.intSlot(a, what) + re(t) }
		case expr.OpSub:
			return func(t *Thread) int64 { return t.intSlot(a, what) - re(t) }
		case expr.OpMul:
			return func(t *Thread) int64 { return t.intSlot(a, what) * re(t) }
		}
	case b >= 0:
		switch x.Op {
		case expr.OpAdd:
			return func(t *Thread) int64 { return le(t) + t.intSlot(b, what) }
		case expr.OpSub:
			return func(t *Thread) int64 { return le(t) - t.intSlot(b, what) }
		case expr.OpMul:
			return func(t *Thread) int64 { return le(t) * t.intSlot(b, what) }
		case expr.OpDiv:
			return func(t *Thread) int64 {
				d := t.intSlot(b, what)
				if d == 0 {
					fail("division by zero")
				}
				return expr.FloorDiv(le(t), d)
			}
		case expr.OpMod:
			return func(t *Thread) int64 {
				d := t.intSlot(b, what)
				if d == 0 {
					fail("modulo by zero")
				}
				return expr.FloorMod(le(t), d)
			}
		}
	case r.konst:
		switch {
		case x.Op == expr.OpAdd:
			return func(t *Thread) int64 { return le(t) + n }
		case x.Op == expr.OpSub:
			return func(t *Thread) int64 { return le(t) - n }
		case x.Op == expr.OpMul:
			return func(t *Thread) int64 { return le(t) * n }
		case x.Op == expr.OpDiv && n != 0:
			return func(t *Thread) int64 { return expr.FloorDiv(le(t), n) }
		case x.Op == expr.OpMod && n != 0:
			return func(t *Thread) int64 { return expr.FloorMod(le(t), n) }
		}
	}
	switch x.Op {
	case expr.OpAdd:
		return func(t *Thread) int64 { return le(t) + re(t) }
	case expr.OpSub:
		return func(t *Thread) int64 { return le(t) - re(t) }
	case expr.OpMul:
		return func(t *Thread) int64 { return le(t) * re(t) }
	case expr.OpDiv:
		return func(t *Thread) int64 {
			d := re(t)
			if d == 0 {
				fail("division by zero")
			}
			return expr.FloorDiv(le(t), d)
		}
	}
	return func(t *Thread) int64 {
		d := re(t)
		if d == 0 {
			fail("modulo by zero")
		}
		return expr.FloorMod(le(t), d)
	}
}

// compileCompare compiles <, <=, > and >=.
func (c *compiler) compileCompare(x expr.Binary, sc *scope) bexpr {
	var what fmt.Stringer = x
	l, r := c.operand(x.L, sc, what), c.operand(x.R, sc, what)
	a, b, n, le, re := l.slot, r.slot, r.n, l.e, r.e
	switch {
	case a >= 0 && b >= 0:
		switch x.Op {
		case expr.OpLt:
			return func(t *Thread) bool { return t.intSlot(a, what) < t.intSlot(b, what) }
		case expr.OpLe:
			return func(t *Thread) bool { return t.intSlot(a, what) <= t.intSlot(b, what) }
		case expr.OpGt:
			return func(t *Thread) bool { return t.intSlot(a, what) > t.intSlot(b, what) }
		}
		return func(t *Thread) bool { return t.intSlot(a, what) >= t.intSlot(b, what) }
	case a >= 0 && r.konst:
		switch x.Op {
		case expr.OpLt:
			return func(t *Thread) bool { return t.intSlot(a, what) < n }
		case expr.OpLe:
			return func(t *Thread) bool { return t.intSlot(a, what) <= n }
		case expr.OpGt:
			return func(t *Thread) bool { return t.intSlot(a, what) > n }
		}
		return func(t *Thread) bool { return t.intSlot(a, what) >= n }
	}
	switch x.Op {
	case expr.OpLt:
		return func(t *Thread) bool { return le(t) < re(t) }
	case expr.OpLe:
		return func(t *Thread) bool { return le(t) <= re(t) }
	case expr.OpGt:
		return func(t *Thread) bool { return le(t) > re(t) }
	}
	return func(t *Thread) bool { return le(t) >= re(t) }
}

// compileEq compiles == and !=, which compare values of any kinds.
func (c *compiler) compileEq(x expr.Binary, sc *scope) bexpr {
	ne := x.Op == expr.OpNe
	if lv, ok := x.L.(expr.VarRef); ok {
		a := sc.slot(lv.Name)
		if rv, ok := x.R.(expr.VarRef); ok {
			b := sc.slot(rv.Name)
			return func(t *Thread) bool { return (t.slotGet(a) == t.slotGet(b)) != ne }
		}
		if v, ok := literal(x.R); ok {
			return func(t *Thread) bool { return (t.slotGet(a) == v) != ne }
		}
	}
	l, r := c.compileExpr(x.L, sc), c.compileExpr(x.R, sc)
	return func(t *Thread) bool { return (l(t) == r(t)) != ne }
}

// checkRange is one compiled array check item.  A singleton range
// e..e+1:1, the form every access check takes, evaluates e once.
type checkRange struct {
	lo, hi, step iexpr
	single       bool
}

func (c *compiler) compileRange(r expr.StridedRange, sc *scope, what fmt.Stringer) checkRange {
	if e, ok := r.IsSingleton(); ok {
		return checkRange{lo: c.compileInt(e, sc, what), single: true}
	}
	return checkRange{
		lo:   c.compileInt(r.Lo, sc, what),
		hi:   c.compileInt(r.Hi, sc, what),
		step: c.compileInt(r.Step, sc, what),
	}
}

// span evaluates a range that is not a singleton, clamped to an array
// of length n; ok is false when nothing of it lies inside.  A negative
// lo moves to the stride's first element at or past 0, so the clamped
// range names the same elements.
func (cr *checkRange) span(t *Thread, n int64) (lo, hi, step int64, ok bool) {
	lo, hi, step = cr.lo(t), cr.hi(t), cr.step(t)
	if step < 1 {
		fail("check with non-positive stride %d", step)
	}
	if lo < 0 {
		lo = expr.FloorMod(lo, step)
	}
	hi = min(hi, n)
	return lo, hi, step, lo < hi
}
