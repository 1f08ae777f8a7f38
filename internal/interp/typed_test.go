package interp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bigfoot/internal/bfj"
	"bigfoot/internal/expr"
)

// The differential test of the typed expression compiler: random
// expressions over every operator, evaluated for every kind of consumer
// by the compiler and by the Value-returning evaluator it replaced
// (refCompileExpr, kept verbatim below) consumed the way the statements
// consumed it.  Both must give the same value, or fail with the same
// text byte for byte.

// refCompileExpr is the Value-returning expression compiler the typed
// one replaced, unchanged but for its name.
func refCompileExpr(e expr.Expr, sc *scope) cexpr {
	// what names the expression in type errors, converted once here
	// rather than on every evaluation.
	var what fmt.Stringer = e
	switch x := e.(type) {
	case expr.IntLit:
		v := IntVal(x.Val)
		return func(t *Thread) Value { return v }
	case expr.BoolLit:
		v := BoolVal(x.Val)
		return func(t *Thread) Value { return v }
	case expr.VarRef:
		slot := sc.slot(x.Name)
		return func(t *Thread) Value { return t.slotGet(slot) }
	case expr.LenOf:
		slot := sc.slot(x.Base)
		name := string(x.Base)
		return func(t *Thread) Value { return IntVal(int64(getArr(t, slot, name).Len())) }
	case expr.Unary:
		inner := refCompileExpr(x.X, sc)
		switch x.Op {
		case expr.OpNot:
			return func(t *Thread) Value { return BoolVal(!asBool(inner(t), what)) }
		case expr.OpNeg:
			return func(t *Thread) Value { return IntVal(-asInt(inner(t), what)) }
		}
	case expr.Binary:
		l := refCompileExpr(x.L, sc)
		r := refCompileExpr(x.R, sc)
		switch x.Op {
		case expr.OpAnd:
			return func(t *Thread) Value {
				if !asBool(l(t), what) {
					return BoolVal(false)
				}
				return BoolVal(asBool(r(t), what))
			}
		case expr.OpOr:
			return func(t *Thread) Value {
				if asBool(l(t), what) {
					return BoolVal(true)
				}
				return BoolVal(asBool(r(t), what))
			}
		case expr.OpEq:
			return func(t *Thread) Value { return BoolVal(l(t) == r(t)) }
		case expr.OpNe:
			return func(t *Thread) Value { return BoolVal(l(t) != r(t)) }
		case expr.OpAdd:
			return func(t *Thread) Value { return IntVal(asInt(l(t), what) + asInt(r(t), what)) }
		case expr.OpSub:
			return func(t *Thread) Value { return IntVal(asInt(l(t), what) - asInt(r(t), what)) }
		case expr.OpMul:
			return func(t *Thread) Value { return IntVal(asInt(l(t), what) * asInt(r(t), what)) }
		case expr.OpDiv:
			return func(t *Thread) Value {
				d := asInt(r(t), what)
				if d == 0 {
					fail("division by zero")
				}
				return IntVal(expr.FloorDiv(asInt(l(t), what), d))
			}
		case expr.OpMod:
			return func(t *Thread) Value {
				d := asInt(r(t), what)
				if d == 0 {
					fail("modulo by zero")
				}
				return IntVal(expr.FloorMod(asInt(l(t), what), d))
			}
		case expr.OpLt:
			return func(t *Thread) Value { return BoolVal(asInt(l(t), what) < asInt(r(t), what)) }
		case expr.OpLe:
			return func(t *Thread) Value { return BoolVal(asInt(l(t), what) <= asInt(r(t), what)) }
		case expr.OpGt:
			return func(t *Thread) Value { return BoolVal(asInt(l(t), what) > asInt(r(t), what)) }
		case expr.OpGe:
			return func(t *Thread) Value { return BoolVal(asInt(l(t), what) >= asInt(r(t), what)) }
		}
	}
	return func(t *Thread) Value {
		fail("cannot evaluate expression %s", e)
		return Value{}
	}
}

// diffVars is the frame every expression is evaluated over, in slot
// order: integers at the edges of int64, booleans, an object, an array,
// an unassigned local, and dst, which the statements write.
var diffVars = []struct {
	name expr.Var
	v    Value
}{
	{"zero", IntVal(0)},
	{"one", IntVal(1)},
	{"neg", IntVal(-1)},
	{"min", IntVal(math.MinInt64)},
	{"max", IntVal(math.MaxInt64)},
	{"yes", BoolVal(true)},
	{"no", BoolVal(false)},
	{"obj", objVal(&Object{ID: 7, Class: &bfj.Class{Name: "C"}})},
	{"arr", arrVal(&Array{ID: 9, Elems: []Value{IntVal(100), IntVal(101), IntVal(102)}})},
	{"unset", undefValue},
	{"dst", undefValue},
}

var (
	intLeaves = []expr.Expr{expr.I(0), expr.I(1), expr.I(-1), expr.I(math.MinInt64), expr.I(math.MaxInt64),
		expr.V("zero"), expr.V("one"), expr.V("neg"), expr.V("min"), expr.V("max"), expr.LenOf{Base: "arr"}}
	boolLeaves = []expr.Expr{expr.B(true), expr.B(false), expr.V("yes"), expr.V("no")}
	// wildLeaves have a kind no operator accepts, or fail to read.
	wildLeaves = []expr.Expr{expr.V("obj"), expr.V("arr"), expr.V("unset"),
		expr.LenOf{Base: "obj"}, expr.LenOf{Base: "unset"}}
	intOps  = []expr.Op{expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpMod}
	boolOps = []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe, expr.OpAnd, expr.OpOr}
)

// exprGen draws random expressions, mostly well-kinded so that deep
// trees evaluate, with a kind mismatch or a wild leaf at about one node
// in ten.  ops counts the operators drawn.
type exprGen struct {
	rng *rand.Rand
	ops map[expr.Op]int
}

func (g *exprGen) pick(xs []expr.Expr) expr.Expr { return xs[g.rng.Intn(len(xs))] }

// gen returns an expression at most depth levels deep, of kind want
// (KindInt or KindBool) unless a mismatch is drawn.
func (g *exprGen) gen(depth int, want ValueKind) expr.Expr {
	if g.rng.Intn(10) == 0 {
		if g.rng.Intn(2) == 0 {
			return g.pick(wildLeaves)
		}
		want = KindInt + KindBool - want
	}
	if depth <= 1 || g.rng.Intn(4) == 0 {
		if want == KindInt {
			return g.pick(intLeaves)
		}
		return g.pick(boolLeaves)
	}
	if want == KindInt {
		if g.rng.Intn(8) == 0 {
			g.ops[expr.OpNeg]++
			return expr.Unary{Op: expr.OpNeg, X: g.gen(depth-1, KindInt)}
		}
		op := intOps[g.rng.Intn(len(intOps))]
		g.ops[op]++
		return expr.Bin(op, g.gen(depth-1, KindInt), g.gen(depth-1, KindInt))
	}
	if g.rng.Intn(8) == 0 {
		g.ops[expr.OpNot]++
		return expr.Unary{Op: expr.OpNot, X: g.gen(depth-1, KindBool)}
	}
	op := boolOps[g.rng.Intn(len(boolOps))]
	g.ops[op]++
	operands := KindInt
	switch op {
	case expr.OpAnd, expr.OpOr:
		operands = KindBool
	case expr.OpEq, expr.OpNe:
		operands = ValueKind(g.rng.Intn(2)) // KindInt or KindBool
	}
	return expr.Bin(op, g.gen(depth-1, operands), g.gen(depth-1, operands))
}

// diffFixture compiles statements over diffVars and runs them on fresh
// frames.
type diffFixture struct {
	c  *compiler
	sc *scope
}

func newDiffFixture() *diffFixture {
	f := &diffFixture{
		c:  &compiler{prog: &bfj.Program{}, targets: map[string][]target{}, fields: map[string][]fieldSlot{}},
		sc: &scope{slots: map[expr.Var]int{}},
	}
	for _, v := range diffVars {
		f.sc.slot(v.name)
	}
	return f
}

// outcome is what one evaluation left behind: dst's kind and rendering,
// the check events raised, and the failure text ("" on success).
type outcome struct {
	dst    string
	checks string
	fail   string
}

// run executes body on a thread with a fresh frame and returns its
// outcome.  The slice budget never runs out, so the thread never
// yields, and the heap has 1023 words left, so a newarray of any size
// allocates little or fails.
func (f *diffFixture) run(body func(t *Thread)) (out outcome) {
	rec := &checkRecorder{}
	in := &Interp{hook: rec, opts: Options{}.withDefaults()}
	in.C.BaseWords = MaxHeapWords - 1023
	t := &Thread{ID: 1, in: in, cur: make([]Value, len(diffVars)), budget: math.MaxInt}
	for i, v := range diffVars {
		t.cur[i] = v.v
	}
	defer func() {
		dst := t.cur[f.sc.slots["dst"]]
		out.dst, out.checks = fmt.Sprintf("%d:%s", dst.Kind, dst), rec.String()
		if r := recover(); r != nil {
			re, ok := r.(runtimeErr)
			if !ok {
				panic(r)
			}
			out.fail = re.msg
		}
	}()
	body(t)
	return out
}

// checkRecorder renders the CheckRange events of a run.
type checkRecorder struct {
	NopHook
	strings.Builder
}

func (r *checkRecorder) CheckRange(t int, write bool, a *Array, lo, hi, step int, _ []bfj.Pos) {
	fmt.Fprintf(r, "T%d write=%t array#%d[%d..%d:%d];", t, write, a.ID, lo, hi, step)
}

// consumer is one way a statement consumes an expression: got as the
// typed compiler builds it, want as the statement consumed a
// refCompileExpr value before expressions were typed.
type consumer struct {
	name      string
	got, want func(*Thread)
}

// consumers returns every consumer of e.
func (f *diffFixture) consumers(e expr.Expr) []consumer {
	ref := refCompileExpr(e, f.sc)
	var what fmt.Stringer = e
	arr, dst := f.sc.slots["arr"], f.sc.slots["dst"]
	return []consumer{
		{"value",
			func(t *Thread) { t.cur[dst] = f.c.compileExpr(e, f.sc)(t) },
			func(t *Thread) { t.cur[dst] = ref(t) }},
		{"assignment",
			f.stmt(&bfj.Assign{X: "dst", E: e}),
			func(t *Thread) { t.in.step(t); t.slotSet(dst, ref(t)) }},
		{"array index",
			f.stmt(&bfj.ArrayRead{X: "dst", Y: "arr", Z: e}),
			func(t *Thread) {
				t.in.step(t)
				a := getArr(t, arr, "arr")
				i := asInt(ref(t), what)
				if i < 0 || i >= int64(len(a.Elems)) {
					fail("array read out of bounds: index %d, length %d", i, len(a.Elems))
				}
				t.slotSet(dst, a.Elems[i])
			}},
		{"condition",
			f.stmt(&bfj.If{Cond: e,
				Then: &bfj.Block{Stmts: []bfj.Stmt{&bfj.Assign{X: "dst", E: expr.I(1)}}},
				Else: &bfj.Block{Stmts: []bfj.Stmt{&bfj.Assign{X: "dst", E: expr.I(2)}}}}),
			func(t *Thread) {
				t.in.step(t)
				if asBool(ref(t), what) {
					t.slotSet(dst, IntVal(1))
				} else {
					t.slotSet(dst, IntVal(2))
				}
			}},
		{"assert",
			f.stmt(&bfj.Assert{Cond: e}),
			func(t *Thread) {
				t.in.step(t)
				if !asBool(ref(t), what) {
					fail("assertion failed: %s", what)
				}
			}},
		{"newarray size",
			f.stmt(&bfj.NewArray{X: "dst", Size: e}),
			func(t *Thread) {
				in := t.in
				in.step(t)
				n := asInt(ref(t), what)
				if n < 0 {
					fail("newarray with negative size %d", n)
				}
				in.charge(uint64(n) + 1)
				t.slotSet(dst, arrVal(&Array{ID: in.nextArrID, Elems: make([]Value, n)}))
			}},
		f.check(expr.Singleton(e)),
	}
}

// stmt compiles s and returns it as a body for run.
func (f *diffFixture) stmt(s bfj.Stmt) func(*Thread) {
	return f.c.compileStmt(s, f.sc)
}

// check is the consumer "check read(arr[r])".
func (f *diffFixture) check(r expr.StridedRange) consumer {
	p := expr.ArrayPath{Base: "arr", Range: r}
	var path fmt.Stringer = p
	arr := f.sc.slots["arr"]
	lo, hi, step := refCompileExpr(r.Lo, f.sc), refCompileExpr(r.Hi, f.sc), refCompileExpr(r.Step, f.sc)
	return consumer{"check bound",
		f.stmt(&bfj.Check{Items: []bfj.CheckItem{{Kind: bfj.Read, Path: p}}}),
		func(t *Thread) {
			in := t.in
			in.step(t)
			a := getArr(t, arr, "check designator")
			lo := asInt(lo(t), path)
			hi := asInt(hi(t), path)
			step := asInt(step(t), path)
			if step < 1 {
				fail("check with non-positive stride %d", step)
			}
			if lo < 0 {
				lo = expr.FloorMod(lo, step)
			}
			if hi > int64(a.Len()) {
				hi = int64(a.Len())
			}
			if lo >= hi {
				return
			}
			in.countCheck(t)
			in.hook.CheckRange(t.ID, false, a, int(lo), int(hi), int(step), nil)
		}}
}

// TestTypedMatchesValueEvaluator compares the typed compiler with the
// Value-returning evaluator over 6,000 random expressions up to six
// levels deep, for every consumer, and over 2,000 random strided check
// ranges.
func TestTypedMatchesValueEvaluator(t *testing.T) {
	f := newDiffFixture()
	g := &exprGen{rng: rand.New(rand.NewSource(1)), ops: map[expr.Op]int{}}
	bad := 0
	compare := func(e fmt.Stringer, cs consumer, failed map[string]int) {
		got, want := f.run(cs.got), f.run(cs.want)
		if want.fail != "" {
			failed[cs.name]++
		}
		if got != want {
			if bad++; bad <= 20 {
				t.Errorf("%s of %s:\n got %+v\nwant %+v", cs.name, e, got, want)
			}
		}
	}
	failed := map[string]int{}
	const exprs = 6000
	for i := 0; i < exprs; i++ {
		e := g.gen(1+g.rng.Intn(6), KindInt+ValueKind(i%2))
		for _, cs := range f.consumers(e) {
			compare(e, cs, failed)
		}
	}
	for op, n := range g.ops {
		t.Logf("operator %s: %d", op, n)
	}
	for _, op := range append(append([]expr.Op{expr.OpNeg, expr.OpNot}, intOps...), boolOps...) {
		if g.ops[op] == 0 {
			t.Errorf("operator %s never drawn", op)
		}
	}
	for name, n := range failed {
		t.Logf("%s: %d of %d evaluations fail", name, n, exprs)
	}

	steps := []expr.Expr{expr.I(1), expr.I(2), expr.V("one"), expr.V("zero"), expr.V("neg"), expr.V("yes")}
	rangeFailed := map[string]int{}
	const ranges = 2000
	for i := 0; i < ranges; i++ {
		r := expr.StridedRange{Lo: g.gen(1+g.rng.Intn(3), KindInt), Hi: g.gen(1+g.rng.Intn(3), KindInt),
			Step: steps[g.rng.Intn(len(steps))]}
		if g.rng.Intn(4) == 0 {
			r.Step = g.gen(1+g.rng.Intn(3), KindInt)
		}
		compare(r, f.check(r), rangeFailed)
	}
	t.Logf("check ranges: %d of %d evaluations fail", rangeFailed["check bound"], ranges)
}

// TestSingletonCheck: a singleton check a[e] evaluates e once, as its
// own range e..e+1:1 would clamp: lo = MaxInt64 wraps hi and skips the
// check, a negative lo clamps to an empty range, and a non-integer index
// fails naming the check path.  A strided range with a negative lo
// clamps to the stride's first element at or past 0.
func TestSingletonCheck(t *testing.T) {
	f := newDiffFixture()
	for _, tc := range []struct {
		r    expr.StridedRange
		want outcome
	}{
		{expr.Singleton(expr.V("one")), outcome{checks: "T1 write=false array#9[1..2:1];"}},
		{expr.Singleton(expr.Add(expr.V("one"), expr.I(1))), outcome{checks: "T1 write=false array#9[2..3:1];"}},
		{expr.Singleton(expr.V("max")), outcome{}},
		{expr.Singleton(expr.I(math.MaxInt64)), outcome{}},
		{expr.Singleton(expr.LenOf{Base: "arr"}), outcome{}},
		{expr.Singleton(expr.V("neg")), outcome{}},
		{expr.Singleton(expr.V("min")), outcome{}},
		{expr.Contiguous(expr.V("neg"), expr.I(2)), outcome{checks: "T1 write=false array#9[0..2:1];"}},
		{expr.StridedRange{Lo: expr.V("neg"), Hi: expr.I(3), Step: expr.I(2)}, outcome{checks: "T1 write=false array#9[1..3:2];"}},
		{expr.StridedRange{Lo: expr.V("min"), Hi: expr.I(3), Step: expr.I(3)}, outcome{checks: "T1 write=false array#9[1..3:3];"}},
		{expr.Singleton(expr.V("yes")), outcome{fail: "expected integer, got true in arr[yes]"}},
		{expr.Singleton(expr.V("obj")), outcome{fail: "expected integer, got C#7 in arr[obj]"}},
		{expr.Singleton(expr.V("unset")), outcome{fail: "read of unassigned variable (slot 9)"}},
		{expr.Singleton(expr.Add(expr.V("yes"), expr.I(1))), outcome{fail: "expected integer, got true in (yes + 1)"}},
	} {
		cs := f.check(tc.r)
		got, want := f.run(cs.got), f.run(cs.want)
		got.dst, want.dst = "", ""
		if got != tc.want || want != tc.want {
			t.Errorf("check read(arr[%s]):\n got %+v\n ref %+v\nwant %+v", tc.r, got, want, tc.want)
		}
	}
}
