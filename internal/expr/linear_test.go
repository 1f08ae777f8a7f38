package expr

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// This file pins the sorted-term Linear and the append-based rendering
// to a reference: a fmt-rendered, two-map implementation kept here in
// miniature.  Random expressions must render
// the same bytes, linearize to the same keys, coefficients and
// representative expressions, fold to the same constants and substitute
// to the same expressions.

func refString(e Expr) string {
	switch x := e.(type) {
	case IntLit:
		return fmt.Sprintf("%d", x.Val)
	case BoolLit:
		return fmt.Sprintf("%t", x.Val)
	case VarRef:
		return string(x.Name)
	case Binary:
		return fmt.Sprintf("(%s %s %s)", refString(x.L), x.Op, refString(x.R))
	case Unary:
		return fmt.Sprintf("%s%s", x.Op, refParen(x.X))
	case FieldSel:
		return fmt.Sprintf("%s.%s", x.Base, x.Field)
	case IndexSel:
		return fmt.Sprintf("%s[%s]", x.Base, refString(x.Index))
	case LenOf:
		return fmt.Sprintf("alen(%s)", x.Base)
	}
	panic("unknown expression")
}

func refParen(e Expr) string {
	switch e.(type) {
	case IntLit, BoolLit, VarRef, FieldSel, IndexSel, LenOf:
		return refString(e)
	}
	return "(" + refString(e) + ")"
}

type refLinear struct {
	Const int64
	Coef  map[string]int64
	terms map[string]Expr
}

func newRef() refLinear { return refLinear{Coef: map[string]int64{}, terms: map[string]Expr{}} }

func (l *refLinear) add(key string, term Expr, coef int64) {
	if coef == 0 {
		return
	}
	n := l.Coef[key] + coef
	if n == 0 {
		delete(l.Coef, key)
		delete(l.terms, key)
	} else {
		l.Coef[key] = n
		l.terms[key] = term
	}
}

func (l refLinear) addLinear(o refLinear, k int64) refLinear {
	r := newRef()
	r.Const = l.Const + k*o.Const
	for key, c := range l.Coef {
		r.Coef[key], r.terms[key] = c, l.terms[key]
	}
	for key, c := range o.Coef {
		r.add(key, o.terms[key], k*c)
	}
	return r
}

func (l refLinear) keys() []string {
	ks := make([]string, 0, len(l.Coef))
	for k := range l.Coef {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func (l refLinear) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", l.Const)
	for _, k := range l.keys() {
		fmt.Fprintf(&b, "+%d*%s", l.Coef[k], k)
	}
	return b.String()
}

// fromLinear renders FromLinear's result, which shows the
// representative expressions.
func (l refLinear) fromLinear() string {
	var parts []string
	for _, k := range l.keys() {
		parts = append(parts, fmt.Sprintf("%d:%s", l.Coef[k], refString(l.terms[k])))
	}
	return fmt.Sprintf("%d|%s", l.Const, strings.Join(parts, ","))
}

func refLinearize(e Expr) refLinear {
	l := newRef()
	refLin(e, 1, &l)
	return l
}

func refLin(e Expr, k int64, out *refLinear) {
	switch x := e.(type) {
	case IntLit:
		out.Const += k * x.Val
	case VarRef:
		out.add("v:"+string(x.Name), x, k)
	case Unary:
		if x.Op == OpNeg {
			refLin(x.X, -k, out)
			return
		}
		out.add("o:"+refString(e), e, k)
	case Binary:
		switch x.Op {
		case OpAdd:
			refLin(x.L, k, out)
			refLin(x.R, k, out)
			return
		case OpSub:
			refLin(x.L, k, out)
			refLin(x.R, -k, out)
			return
		case OpMul:
			if c, ok := refConstOf(x.L); ok {
				refLin(x.R, k*c, out)
				return
			}
			if c, ok := refConstOf(x.R); ok {
				refLin(x.L, k*c, out)
				return
			}
		case OpDiv, OpMod:
			if lc, ok := refConstOf(x.L); ok {
				if rc, ok2 := refConstOf(x.R); ok2 && rc != 0 {
					if x.Op == OpDiv {
						out.Const += k * FloorDiv(lc, rc)
					} else {
						out.Const += k * FloorMod(lc, rc)
					}
					return
				}
			}
		}
		key := refString(e)
		if x.Op == OpMul {
			ls, rs := refParen(x.L), refParen(x.R)
			if rs < ls {
				ls, rs = rs, ls
			}
			key = ls + "*" + rs
		}
		out.add("o:"+key, e, k)
	case FieldSel, IndexSel, LenOf:
		out.add("h:"+refString(e), e, k)
	default:
		out.add("o:"+refString(e), e, k)
	}
}

func refConstOf(e Expr) (int64, bool) {
	l := refLinearize2(e)
	if len(l.Coef) == 0 {
		return l.Const, true
	}
	return 0, false
}

func refLinearize2(e Expr) refLinear {
	switch x := e.(type) {
	case IntLit:
		l := newRef()
		l.Const = x.Val
		return l
	case Unary:
		if x.Op == OpNeg {
			return newRef().addLinear(refLinearize2(x.X), -1)
		}
	case Binary:
		switch x.Op {
		case OpAdd:
			return refLinearize2(x.L).addLinear(refLinearize2(x.R), 1)
		case OpSub:
			return refLinearize2(x.L).addLinear(refLinearize2(x.R), -1)
		case OpMul:
			lf, rf := refLinearize2(x.L), refLinearize2(x.R)
			if c, ok := refConstOfForm(lf); ok {
				return newRef().addLinear(rf, c)
			}
			if c, ok := refConstOfForm(rf); ok {
				return newRef().addLinear(lf, c)
			}
		}
	}
	return refLinearize(e)
}

func refConstOfForm(l refLinear) (int64, bool) {
	if len(l.Coef) == 0 {
		return l.Const, true
	}
	return 0, false
}

// linearView renders a Linear the way refLinear.fromLinear does.
func linearView(l Linear) string {
	var parts []string
	for i := 0; i < l.Len(); i++ {
		t := l.Term(i)
		parts = append(parts, fmt.Sprintf("%d:%s", t.Coef, refString(t.Expr)))
	}
	return fmt.Sprintf("%d|%s", l.Const, strings.Join(parts, ","))
}

// randExpr draws an integer expression over few variables and small
// constants (including 0, so products and cancellations fold), with
// commuted products and heap terms so representatives can differ.
func randExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(7) {
		case 0, 1:
			return I(int64(r.Intn(7) - 3))
		case 2:
			return LenOf{Base: "a"}
		case 3:
			return FieldSel{Base: "p", Field: "f"}
		case 4:
			return IndexSel{Base: "a", Index: randExpr(r, depth/2)}
		}
		return V([]Var{"i", "j", "$t1", "i'"}[r.Intn(4)])
	}
	switch r.Intn(8) {
	case 0:
		return Unary{OpNeg, randExpr(r, depth-1)}
	case 1:
		return Bin(OpDiv, randExpr(r, depth-1), randExpr(r, depth-1))
	case 2:
		return Bin(OpMod, randExpr(r, depth-1), randExpr(r, depth-1))
	case 3, 4:
		return Mul(randExpr(r, depth-1), randExpr(r, depth-1))
	case 5:
		return Sub(randExpr(r, depth-1), randExpr(r, depth-1))
	}
	return Add(randExpr(r, depth-1), randExpr(r, depth-1))
}

func TestLinearMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 4000; n++ {
		a, b := randExpr(r, 5), randExpr(r, 5)
		if got, want := a.String(), refString(a); got != want {
			t.Fatalf("String: %q, reference %q", got, want)
		}
		if got := (FieldPath{Base: "p", Fields: []string{"f", "g"}}).String(); got != "p.f/g" {
			t.Fatalf("FieldPath: %q", got)
		}
		rng := StridedRange{Lo: a, Hi: b, Step: I(int64(n%3 + 1))}
		if got, want := (ArrayPath{Base: "a", Range: rng}).String(), refArrayPath(rng); got != want {
			t.Fatalf("ArrayPath: %q, reference %q", got, want)
		}
		for _, sub := range []struct {
			v Var
			r Expr
		}{{"i", b}, {"a", V("b")}, {"p", b}, {"k", b}} {
			got, ok := Subst(a, sub.v, sub.r)
			want, wok := refSubst(a, sub.v, sub.r)
			if ok != wok || ok && got.String() != want.String() {
				t.Fatalf("Subst(%s, %s, %s) = %s,%v, reference %s,%v", a, sub.v, sub.r, got, ok, want, wok)
			}
		}

		l, ref := Linearize(a), refLinearize(a)
		if l.Key() != ref.key() || linearView(l) != ref.fromLinear() {
			t.Fatalf("Linearize(%s) = %s [%s], reference %s [%s]", a, l.Key(), linearView(l), ref.key(), ref.fromLinear())
		}
		c, ok := constOf(a)
		rc, rok := refConstOf(a)
		if c != rc || ok != rok {
			t.Fatalf("constOf(%s) = %d,%v, reference %d,%v", a, c, ok, rc, rok)
		}
		sum, rsum := l.AddLinear(Linearize(b), -2), ref.addLinear(refLinearize(b), -2)
		if sum.Key() != rsum.key() || linearView(sum) != rsum.fromLinear() {
			t.Fatalf("AddLinear: %s [%s], reference %s [%s]", sum.Key(), linearView(sum), rsum.key(), rsum.fromLinear())
		}
		var diff Linear
		diff.AddExpr(a, 1)
		diff.AddExpr(b, -1)
		if rdiff := refLinearize(Sub(a, b)); diff.Key() != rdiff.key() || linearView(diff) != rdiff.fromLinear() {
			t.Fatalf("AddExpr: %s, reference %s", diff.Key(), rdiff.key())
		}
		if got, want := FromLinear(l).String(), refString(FromLinear(l)); got != want {
			t.Fatalf("FromLinear renders %q, reference %q", got, want)
		}
	}
}

// refSubst is the reference substitution, which rebuilds every node.
func refSubst(e Expr, v Var, r Expr) (Expr, bool) {
	switch x := e.(type) {
	case VarRef:
		if x.Name == v {
			return r, true
		}
	case Binary:
		l, ok1 := refSubst(x.L, v, r)
		rr, ok2 := refSubst(x.R, v, r)
		return Binary{x.Op, l, rr}, ok1 && ok2
	case Unary:
		xx, ok := refSubst(x.X, v, r)
		return Unary{x.Op, xx}, ok
	case FieldSel:
		if x.Base == v {
			vr, isVar := r.(VarRef)
			return FieldSel{vr.Name, x.Field}, isVar
		}
	case LenOf:
		if x.Base == v {
			vr, isVar := r.(VarRef)
			return LenOf{vr.Name}, isVar
		}
	case IndexSel:
		idx, ok := refSubst(x.Index, v, r)
		if x.Base == v {
			vr, isVar := r.(VarRef)
			if !isVar {
				return e, false
			}
			return IndexSel{vr.Name, idx}, ok
		}
		return IndexSel{x.Base, idx}, ok
	}
	return e, true
}

func refArrayPath(r StridedRange) string {
	var rs string
	if e, ok := r.IsSingleton(); ok {
		rs = refString(e)
	} else if isOne(r.Step) {
		rs = fmt.Sprintf("%s..%s", refString(r.Lo), refString(r.Hi))
	} else {
		rs = fmt.Sprintf("%s..%s:%s", refString(r.Lo), refString(r.Hi), refString(r.Step))
	}
	return "a[" + rs + "]"
}

// TestTermKeyOrder: keys order by (Kind, Name) exactly as their
// renderings order, which is what keeps term order, Key and FM's
// elimination order unchanged.
func TestTermKeyOrder(t *testing.T) {
	var keys []TermKey
	for _, kind := range []byte{KindHeap, KindMod, KindOpaque, KindVar} {
		for _, name := range []string{"", "$t1", "a", "a'", "a[0+1*v:i]", "alen(a)", "i", "(i * j)", "i*j", "0+1*v:i%2"} {
			keys = append(keys, TermKey{kind, name})
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			if c, want := a.Compare(b), strings.Compare(a.String(), b.String()); c != want {
				t.Errorf("Compare(%q, %q) = %d, renderings compare %d", a, b, c, want)
			}
		}
	}
}

// TestRepresentativeIsLastAdded: a key's representative expression is
// the last one added, which FromLinear prints.
func TestRepresentativeIsLastAdded(t *testing.T) {
	xy, yx := Mul(V("x"), V("y")), Mul(V("y"), V("x"))
	l := Linearize(Add(xy, yx))
	if got := FromLinear(l).String(); got != "(2 * (y * x))" {
		t.Errorf("FromLinear = %s, want the later (y * x)", got)
	}
	l = Linearize(Sub(Add(xy, yx), yx))
	if got := FromLinear(l).String(); got != "(y * x)" {
		t.Errorf("FromLinear = %s, want (y * x)", got)
	}
	if l.Len() != 1 || l.Coef(TermKey{KindOpaque, "x*y"}) != 1 {
		t.Errorf("form %s, want 1*o:x*y", l)
	}
}

// TestConstOfWraps: a product whose coefficients wrap to zero in int64
// folds to a constant, as in the reference, whether constOf decides it
// in one pass or has to build the form.
func TestConstOfWraps(t *testing.T) {
	x := V("x")
	for _, c := range []struct {
		e     Expr
		c     int64
		konst bool
	}{
		{Mul(Mul(x, I(1<<32)), I(1<<32)), 0, true},
		{Mul(Mul(x, I(1<<32)), I(1<<31)), 0, false},
		{Mul(I(-1<<63), Add(Mul(x, I(2)), I(3))), -1 << 63, true},
		{Mul(Add(x, x), I(-1<<63)), 0, true},
		{Mul(Sub(Add(x, V("y")), V("y")), I(1<<62)), 0, false},
	} {
		if got, ok := constOf(c.e); got != c.c || ok != c.konst {
			t.Errorf("constOf(%s) = %d,%v, want %d,%v", c.e, got, ok, c.c, c.konst)
		}
	}
	r := rand.New(rand.NewSource(2))
	var wide func(depth int) Expr
	wide = func(depth int) Expr {
		if depth == 0 || r.Intn(4) == 0 {
			if r.Intn(2) == 0 {
				return I(int64(1) << r.Intn(64))
			}
			return randExpr(r, 2)
		}
		switch r.Intn(4) {
		case 0:
			return Unary{OpNeg, wide(depth - 1)}
		case 1:
			return Sub(wide(depth-1), wide(depth-1))
		}
		return Mul(wide(depth-1), wide(depth-1))
	}
	for n := 0; n < 4000; n++ {
		e := wide(5)
		c, ok := constOf(e)
		rc, rok := refConstOf(e)
		if c != rc || ok != rok {
			t.Fatalf("constOf(%s) = %d,%v, reference %d,%v", e, c, ok, rc, rok)
		}
		if l, ref := Linearize(e), refLinearize(e); l.Key() != ref.key() || linearView(l) != ref.fromLinear() {
			t.Fatalf("Linearize(%s) = %s [%s], reference %s [%s]", e, l.Key(), linearView(l), ref.key(), ref.fromLinear())
		}
	}
}

// TestLinearizeChainAllocs: constOf builds a form at most once per call
// and a product chain's verdicts come from one pass, so linearizing an
// operator chain allocates at most in proportion to its length.  Chains
// are parsed in a loop, which the nesting limit does not bound.
func TestLinearizeChainAllocs(t *testing.T) {
	chains := map[string]func(n int) Expr{
		"y*3*...*3": func(n int) Expr {
			var e Expr = V("y")
			for i := 0; i < n; i++ {
				e = Mul(e, I(3))
			}
			return e
		},
		"(a0+...+an)*w": func(n int) Expr {
			var e Expr = V("a0")
			for i := 1; i < n; i++ {
				e = Add(e, V(Var(fmt.Sprint("a", i))))
			}
			return Mul(e, V("w"))
		},
		"(i+j)*3*...*3": func(n int) Expr {
			e := Add(V("i"), V("j"))
			for i := 0; i < n; i++ {
				e = Mul(e, I(3))
			}
			return e
		},
	}
	for name, chain := range chains {
		allocs := func(n int) float64 {
			e := chain(n)
			return testing.AllocsPerRun(2, func() { Linearize(e) })
		}
		const n = 500
		a1, a2 := allocs(n), allocs(2*n)
		t.Logf("%s: %v allocations at %d terms, %v at %d", name, a1, n, a2, 2*n)
		if a2 > 2*a1+2 {
			t.Errorf("%s: allocations grow faster than the chain: %v at %d terms, %v at %d", name, a1, n, a2, 2*n)
		}
	}
}

// TestPushNormalizeMatchesAddTerm: pushing additions and normalizing
// once builds the form that AddTerm builds from the same additions one
// at a time, representatives included, also on top of an existing form
// and through cancellations.
func TestPushNormalizeMatchesAddTerm(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	keys := []TermKey{VarKey("i"), VarKey("j"), {KindHeap, "a[i]"}, {KindOpaque, "i*j"}, {KindMod, "0+1*v:i%2"}}
	for n := 0; n < 2000; n++ {
		var want, got Linear
		add := func(push bool) {
			k := keys[r.Intn(len(keys))]
			c := int64(r.Intn(5) - 2)
			e := V(Var(fmt.Sprint("e", r.Intn(1000))))
			want.AddTerm(k, e, c)
			if push {
				got.push(k, e, c)
			} else {
				got.AddTerm(k, e, c)
			}
		}
		for m := r.Intn(4); m > 0; m-- {
			add(false)
		}
		for m := r.Intn(12); m > 0; m-- {
			add(true)
		}
		got.normalize()
		if got.Key() != want.Key() || linearView(got) != linearView(want) {
			t.Fatalf("normalized %s [%s], AddTerm built %s [%s]", got.Key(), linearView(got), want.Key(), linearView(want))
		}
	}
}
