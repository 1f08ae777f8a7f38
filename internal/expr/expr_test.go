package expr

import (
	"testing"
	"testing/quick"
)

func TestNotSimplifiesComparisons(t *testing.T) {
	cases := []struct {
		in   Expr
		want string
	}{
		{Not(Lt(V("i"), I(10))), "(i >= 10)"},
		{Not(Le(V("i"), I(10))), "(i > 10)"},
		{Not(Eq(V("i"), V("j"))), "(i != j)"},
		{Not(Not(V("b"))), "b"},
		{Not(B(true)), "false"},
		{Not(Bin(OpOr, V("a"), V("b"))), "(!a && !b)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Not: got %s, want %s", got, c.want)
		}
	}
}

func TestSubstBasic(t *testing.T) {
	e := Add(V("i"), Mul(I(2), V("j")))
	got, ok := Subst(e, "i", Add(V("k"), I(1)))
	if !ok {
		t.Fatal("subst failed")
	}
	if got.String() != "((k + 1) + (2 * j))" {
		t.Errorf("got %s", got)
	}
}

func TestSubstHeapBaseNeedsVar(t *testing.T) {
	e := FieldSel{Base: "x", Field: "f"}
	if _, ok := Subst(e, "x", Add(V("y"), I(1))); ok {
		t.Error("substituting non-variable into selection base should fail")
	}
	got, ok := Subst(e, "x", V("y"))
	if !ok || got.String() != "y.f" {
		t.Errorf("got %v ok=%v", got, ok)
	}
}

func TestLinearizeFoldsArithmetic(t *testing.T) {
	// (i + 1) - (i + 1) == 0
	e1 := Add(V("i"), I(1))
	d := Diff(e1, Add(V("i"), I(1)))
	if c, ok := d.IsConst(); !ok || c != 0 {
		t.Errorf("diff not zero: %v", d)
	}
	// 2*i + 3 - i == i + 3
	l := Diff(Add(Mul(I(2), V("i")), I(3)), V("i"))
	if l.Const != 3 || l.Coef(VarKey("i")) != 1 {
		t.Errorf("unexpected linear form %v", l)
	}
}

func TestLinearizeOpaqueProductCommutes(t *testing.T) {
	d := Diff(Mul(V("x"), V("y")), Mul(V("y"), V("x")))
	if c, ok := d.IsConst(); !ok || c != 0 {
		t.Errorf("x*y - y*x should normalize to 0, got %v", d)
	}
}

func TestLinearizeConstFolding(t *testing.T) {
	e := Bin(OpDiv, I(10), I(3))
	l := Linearize(e)
	if c, ok := l.IsConst(); !ok || c != 3 {
		t.Errorf("10/3 should fold to 3, got %v", l)
	}
	m := Linearize(Bin(OpMod, I(10), I(3)))
	if c, ok := m.IsConst(); !ok || c != 1 {
		t.Errorf("10%%3 should fold to 1, got %v", m)
	}
}

func TestFromLinearRoundTrip(t *testing.T) {
	exprs := []Expr{
		Add(V("i"), I(3)),
		Sub(Mul(I(2), V("i")), V("j")),
		I(7),
		V("k"),
	}
	for _, e := range exprs {
		l := Linearize(e)
		back := FromLinear(l)
		if d, ok := Diff(e, back).IsConst(); !ok || d != 0 {
			t.Errorf("round trip of %s gave %s", e, back)
		}
	}
}

func TestStridedRangeSingleton(t *testing.T) {
	r := Singleton(V("i"))
	if e, ok := r.IsSingleton(); !ok || e.String() != "i" {
		t.Errorf("singleton not recognized: %v %v", e, ok)
	}
	if r.String() != "i" {
		t.Errorf("singleton renders as %q", r.String())
	}
	c := Contiguous(I(0), V("n"))
	if _, ok := c.IsSingleton(); ok {
		t.Error("contiguous range misdetected as singleton")
	}
	if c.String() != "0..n" {
		t.Errorf("contiguous renders as %q", c.String())
	}
	s := StridedRange{Lo: I(0), Hi: V("n"), Step: I(2)}
	if s.String() != "0..n:2" {
		t.Errorf("strided renders as %q", s.String())
	}
}

func TestFieldPathNormalization(t *testing.T) {
	p := NewFieldPath("p", "z", "x", "y", "x")
	if p.String() != "p.x/y/z" {
		t.Errorf("got %q", p.String())
	}
	q := NewFieldPath("p", "x", "y", "z")
	if !EqualPath(p, q) {
		t.Error("normalized paths should be equal")
	}
}

func TestSubstPath(t *testing.T) {
	p := ArrayPath{Base: "a", Range: Contiguous(I(0), V("i"))}
	got, ok := SubstPath(p, "i", Add(V("j"), I(1)))
	if !ok {
		t.Fatal("subst failed")
	}
	if got.String() != "a[0..(j + 1)]" {
		t.Errorf("got %q", got.String())
	}
	// Substituting a non-variable into the designator is ill-formed.
	if _, ok := SubstPath(p, "a", I(3)); ok {
		t.Error("expected designator substitution failure")
	}
	got2, ok := SubstPath(p, "a", V("b"))
	if !ok || got2.Designator() != "b" {
		t.Errorf("designator rename failed: %v", got2)
	}
}

func TestPathMentions(t *testing.T) {
	p := ArrayPath{Base: "a", Range: Contiguous(V("lo"), V("hi"))}
	for _, v := range []Var{"a", "lo", "hi"} {
		if !PathMentions(p, v) {
			t.Errorf("path should mention %s", v)
		}
	}
	if PathMentions(p, "z") {
		t.Error("path should not mention z")
	}
}

// Property: Not is an involution up to evaluation on comparisons of
// linear expressions.
func TestNotInvolutionProperty(t *testing.T) {
	f := func(a, b int8, opi uint8) bool {
		ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		op := ops[int(opi)%len(ops)]
		e := Bin(op, I(int64(a)), I(int64(b)))
		nn := Not(Not(e))
		return evalCmp(nn) == evalCmp(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func evalCmp(e Expr) bool {
	b, ok := e.(Binary)
	if !ok {
		panic("not a comparison")
	}
	l := b.L.(IntLit).Val
	r := b.R.(IntLit).Val
	switch b.Op {
	case OpEq:
		return l == r
	case OpNe:
		return l != r
	case OpLt:
		return l < r
	case OpLe:
		return l <= r
	case OpGt:
		return l > r
	case OpGe:
		return l >= r
	}
	panic("bad op")
}

// Property: Linearize(a+b) == Linearize(a) + Linearize(b) for random
// small expressions.
func TestLinearizeAdditiveProperty(t *testing.T) {
	f := func(ca, cb int8, va, vb uint8) bool {
		names := []Var{"i", "j", "k"}
		a := Add(Mul(I(int64(ca)), V(names[int(va)%3])), I(int64(ca)))
		b := Sub(V(names[int(vb)%3]), I(int64(cb)))
		sum := Linearize(Add(a, b))
		parts := Linearize(a).AddLinear(Linearize(b), 1)
		return sum.Equal(parts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
