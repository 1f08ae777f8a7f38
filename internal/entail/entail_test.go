package entail

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bigfoot/internal/expr"
)

func solver(facts ...expr.Expr) *Solver { return New(facts) }

func TestBasicArithmeticEntailment(t *testing.T) {
	// {i = 0} ⊢ i < 10, i >= 0, i == 0
	s := solver(expr.Eq(expr.V("i"), expr.I(0)))
	for _, q := range []expr.Expr{
		expr.Lt(expr.V("i"), expr.I(10)),
		expr.Ge(expr.V("i"), expr.I(0)),
		expr.Eq(expr.V("i"), expr.I(0)),
	} {
		if !s.Entails(q) {
			t.Errorf("should entail %s", q)
		}
	}
	if s.Entails(expr.Lt(expr.V("i"), expr.I(0))) {
		t.Error("should not entail i < 0")
	}
}

func TestEqualityChains(t *testing.T) {
	// {i = j, j = k+1} ⊢ i = k+1, i > k
	s := solver(
		expr.Eq(expr.V("i"), expr.V("j")),
		expr.Eq(expr.V("j"), expr.Add(expr.V("k"), expr.I(1))),
	)
	if !s.ProveEq(expr.V("i"), expr.Add(expr.V("k"), expr.I(1))) {
		t.Error("should prove i = k+1")
	}
	if !s.Entails(expr.Bin(expr.OpGt, expr.V("i"), expr.V("k"))) {
		t.Error("should entail i > k")
	}
}

func TestRenamingScenario(t *testing.T) {
	// The Fig. 6(b) situation: {i = i' + 1} ⊢ 0..i = 0..i'+1
	s := solver(expr.Eq(expr.V("i"), expr.Add(expr.V("i'"), expr.I(1))))
	if !s.ProveEq(expr.V("i"), expr.Add(expr.V("i'"), expr.I(1))) {
		t.Error("i = i'+1 not proven")
	}
	if !s.ProveEq(expr.Add(expr.V("i"), expr.I(-1)), expr.V("i'")) {
		t.Error("i-1 = i' not proven")
	}
}

func TestTransitiveInequalities(t *testing.T) {
	// {i < j, j <= k} ⊢ i < k, i <= k-1, i != k
	s := solver(
		expr.Lt(expr.V("i"), expr.V("j")),
		expr.Le(expr.V("j"), expr.V("k")),
	)
	if !s.ProveLt(expr.V("i"), expr.V("k")) {
		t.Error("i < k not proven")
	}
	if !s.ProveLe(expr.V("i"), expr.Sub(expr.V("k"), expr.I(1))) {
		t.Error("i <= k-1 not proven")
	}
	if !s.ProveNe(expr.V("i"), expr.V("k")) {
		t.Error("i != k not proven")
	}
	if s.ProveEq(expr.V("i"), expr.V("k")) {
		t.Error("i = k wrongly proven")
	}
}

func TestIntegerTightening(t *testing.T) {
	// {2i >= 1} ⊢ i >= 1 over the integers (not over rationals).
	s := solver(expr.Ge(expr.Mul(expr.I(2), expr.V("i")), expr.I(1)))
	if !s.ProveLe(expr.I(1), expr.V("i")) {
		t.Error("integer tightening failed: 2i>=1 should give i>=1")
	}
}

func TestAliasCongruence(t *testing.T) {
	// {x = a.f, y = a.f} ⊢ x = y  (the §5 alias-expression example)
	s := solver(
		expr.Eq(expr.V("x"), expr.FieldSel{Base: "a", Field: "f"}),
		expr.Eq(expr.V("y"), expr.FieldSel{Base: "a", Field: "f"}),
	)
	if !s.ProveEq(expr.V("x"), expr.V("y")) {
		t.Error("alias congruence failed: x and y both read a.f")
	}
}

func TestAliasCongruenceThroughVarEquality(t *testing.T) {
	// {a = b, x = a.f, y = b.f} ⊢ x = y
	s := solver(
		expr.Eq(expr.V("a"), expr.V("b")),
		expr.Eq(expr.V("x"), expr.FieldSel{Base: "a", Field: "f"}),
		expr.Eq(expr.V("y"), expr.FieldSel{Base: "b", Field: "f"}),
	)
	if !s.ProveEq(expr.V("x"), expr.V("y")) {
		t.Error("congruence through variable equality failed")
	}
}

func TestIndexCongruence(t *testing.T) {
	// {i = j+1, x = a[i], y = a[j+1]} ⊢ x = y
	s := solver(
		expr.Eq(expr.V("i"), expr.Add(expr.V("j"), expr.I(1))),
		expr.Eq(expr.V("x"), expr.IndexSel{Base: "a", Index: expr.V("i")}),
		expr.Eq(expr.V("y"), expr.IndexSel{Base: "a", Index: expr.Add(expr.V("j"), expr.I(1))}),
	)
	if !s.ProveEq(expr.V("x"), expr.V("y")) {
		t.Error("index congruence failed")
	}
}

func TestNoFalseEntailments(t *testing.T) {
	s := solver(
		expr.Lt(expr.V("i"), expr.V("n")),
		expr.Ge(expr.V("i"), expr.I(0)),
	)
	bad := []expr.Expr{
		expr.Eq(expr.V("i"), expr.I(0)),
		expr.Lt(expr.V("n"), expr.V("i")),
		expr.Ge(expr.V("i"), expr.I(1)),
		expr.V("flag"),
	}
	for _, q := range bad {
		if s.Entails(q) {
			t.Errorf("wrongly entailed %s", q)
		}
	}
}

func TestOpaqueBooleanFacts(t *testing.T) {
	s := solver(expr.V("flag"), expr.Not(expr.V("done")))
	if !s.Entails(expr.V("flag")) {
		t.Error("bare boolean fact not entailed")
	}
	if !s.Entails(expr.Not(expr.V("done"))) {
		t.Error("negated boolean fact not entailed")
	}
	if s.Entails(expr.V("done")) {
		t.Error("done wrongly entailed")
	}
}

func TestInconsistentHypothesesEntailEverything(t *testing.T) {
	s := solver(
		expr.Lt(expr.V("i"), expr.I(0)),
		expr.Ge(expr.V("i"), expr.I(5)),
	)
	if !s.Entails(expr.B(false)) {
		t.Error("inconsistent hypotheses should entail false")
	}
	if !s.Entails(expr.Eq(expr.V("x"), expr.I(99))) {
		t.Error("inconsistent hypotheses should entail anything")
	}
}

func TestDisequalityFacts(t *testing.T) {
	s := solver(expr.Bin(expr.OpNe, expr.V("i"), expr.V("j")))
	if !s.ProveNe(expr.V("i"), expr.V("j")) {
		t.Error("stored disequality not recovered")
	}
	if !s.ProveNe(expr.V("j"), expr.V("i")) {
		t.Error("disequality should be symmetric")
	}
}

func TestConstDiff(t *testing.T) {
	s := solver(expr.Eq(expr.V("i"), expr.Add(expr.V("j"), expr.I(3))))
	d, ok := s.ConstDiff(expr.V("i"), expr.V("j"))
	if !ok || d != 3 {
		t.Errorf("ConstDiff = %d,%v want 3,true", d, ok)
	}
	if _, ok := s.ConstDiff(expr.V("i"), expr.V("k")); ok {
		t.Error("unconstrained difference should not be pinned")
	}
}

func TestConjunctionSplitting(t *testing.T) {
	s := solver(expr.Bin(expr.OpAnd,
		expr.Ge(expr.V("i"), expr.I(0)),
		expr.Lt(expr.V("i"), expr.I(10))))
	if !s.Entails(expr.Ge(expr.V("i"), expr.I(0))) || !s.Entails(expr.Lt(expr.V("i"), expr.I(10))) {
		t.Error("conjunction facts not split")
	}
	if !s.Entails(expr.Bin(expr.OpAnd,
		expr.Ge(expr.V("i"), expr.I(0)),
		expr.Le(expr.V("i"), expr.I(9)))) {
		t.Error("conjunction query not split")
	}
}

func TestLoopBoundReasoning(t *testing.T) {
	// Typical loop exit context: {i >= 0, i >= n, i <= n} ⊢ i = n.
	s := solver(
		expr.Ge(expr.V("i"), expr.I(0)),
		expr.Ge(expr.V("i"), expr.V("n")),
		expr.Le(expr.V("i"), expr.V("n")),
	)
	if !s.ProveEq(expr.V("i"), expr.V("n")) {
		t.Error("i = n not derived from sandwich")
	}
}

func TestAlenTerm(t *testing.T) {
	// {n = alen(a), i < n} ⊢ i < alen(a)
	s := solver(
		expr.Eq(expr.V("n"), expr.LenOf{Base: "a"}),
		expr.Lt(expr.V("i"), expr.V("n")),
	)
	if !s.ProveLt(expr.V("i"), expr.LenOf{Base: "a"}) {
		t.Error("alen congruence failed")
	}
}

// Property test: the solver never "proves" a comparison that a random
// concrete valuation of the hypotheses falsifies (soundness check).
func TestSoundnessUnderRandomValuations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vars := []expr.Var{"i", "j", "k"}
	randLin := func() expr.Expr {
		e := expr.Expr(expr.I(int64(rng.Intn(7) - 3)))
		for _, v := range vars {
			c := rng.Intn(5) - 2
			if c != 0 {
				e = expr.Add(e, expr.Mul(expr.I(int64(c)), expr.V(v)))
			}
		}
		return e
	}
	ops := []expr.Op{expr.OpLe, expr.OpLt, expr.OpGe, expr.OpGt, expr.OpEq}
	eval := func(e expr.Expr, env map[expr.Var]int64) int64 {
		var ev func(expr.Expr) int64
		ev = func(e expr.Expr) int64 {
			switch x := e.(type) {
			case expr.IntLit:
				return x.Val
			case expr.VarRef:
				return env[x.Name]
			case expr.Binary:
				l, r := ev(x.L), ev(x.R)
				switch x.Op {
				case expr.OpAdd:
					return l + r
				case expr.OpSub:
					return l - r
				case expr.OpMul:
					return l * r
				}
			case expr.Unary:
				if x.Op == expr.OpNeg {
					return -ev(x.X)
				}
			}
			t.Fatalf("eval: unexpected %T", e)
			return 0
		}
		return ev(e)
	}
	holds := func(op expr.Op, l, r int64) bool {
		switch op {
		case expr.OpLe:
			return l <= r
		case expr.OpLt:
			return l < r
		case expr.OpGe:
			return l >= r
		case expr.OpGt:
			return l > r
		case expr.OpEq:
			return l == r
		}
		return false
	}

	for trial := 0; trial < 300; trial++ {
		var facts []expr.Expr
		for i := 0; i < 3; i++ {
			facts = append(facts, expr.Bin(ops[rng.Intn(len(ops))], randLin(), randLin()))
		}
		q := expr.Expr(expr.Bin(ops[rng.Intn(len(ops))], randLin(), randLin()))
		s := New(facts)
		if !s.Entails(q) {
			continue
		}
		// The solver claims facts ⊨ q: every model of the facts must
		// satisfy q.
		for m := 0; m < 200; m++ {
			env := map[expr.Var]int64{}
			for _, v := range vars {
				env[v] = int64(rng.Intn(11) - 5)
			}
			all := true
			for _, f := range facts {
				b := f.(expr.Binary)
				if !holds(b.Op, eval(b.L, env), eval(b.R, env)) {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			qb := q.(expr.Binary)
			if !holds(qb.Op, eval(qb.L, env), eval(qb.R, env)) {
				t.Fatalf("unsound: facts %v entail %s per solver, but env %v refutes it", facts, q, env)
			}
		}
	}
}

// Property: ProveEq is reflexive for arbitrary linear expressions under
// any hypothesis set.
func TestProveEqReflexiveProperty(t *testing.T) {
	f := func(a, b int8) bool {
		e := expr.Add(expr.Mul(expr.I(int64(a)), expr.V("i")), expr.I(int64(b)))
		s := New(nil)
		return s.ProveEq(e, e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModCongruenceReasoning(t *testing.T) {
	mod := func(e expr.Expr, m int64) expr.Expr {
		return expr.Bin(expr.OpMod, e, expr.I(m))
	}
	// {i % 2 == 0, j = i + 2} ⊢ j % 2 == 0
	s := solver(
		expr.Eq(mod(expr.V("i"), 2), expr.I(0)),
		expr.Eq(expr.V("j"), expr.Add(expr.V("i"), expr.I(2))),
	)
	if !s.Entails(expr.Eq(mod(expr.V("j"), 2), expr.I(0))) {
		t.Error("congruence not propagated through +2")
	}
	// {i % 2 == 0, j = i + 1} ⊬ j % 2 == 0
	s2 := solver(
		expr.Eq(mod(expr.V("i"), 2), expr.I(0)),
		expr.Eq(expr.V("j"), expr.Add(expr.V("i"), expr.I(1))),
	)
	if s2.Entails(expr.Eq(mod(expr.V("j"), 2), expr.I(0))) {
		t.Error("wrongly proved odd value even")
	}
	// Constant folding with floored semantics: (-3) % 2 == 1.
	s3 := solver(expr.Eq(expr.V("i"), expr.I(-3)))
	if !s3.Entails(expr.Eq(mod(expr.V("i"), 2), expr.I(1))) {
		t.Error("floored mod of negative constant wrong")
	}
}

func TestModFactOrderIndependence(t *testing.T) {
	// The two-phase equality absorption must give the same result
	// regardless of the syntactic order of facts (regression for the
	// stale-term-key bug).
	mod := func(e expr.Expr, m int64) expr.Expr {
		return expr.Bin(expr.OpMod, e, expr.I(m))
	}
	factsA := []expr.Expr{
		expr.Eq(mod(expr.Sub(expr.V("i'"), expr.I(0)), 2), expr.I(0)),
		expr.Eq(expr.V("i"), expr.Add(expr.V("i'"), expr.I(2))),
	}
	factsB := []expr.Expr{factsA[1], factsA[0]}
	q := expr.Eq(mod(expr.Sub(expr.V("i"), expr.I(0)), 2), expr.I(0))
	if !New(factsA).Entails(q) || !New(factsB).Entails(q) {
		t.Error("entailment depends on fact order")
	}
}

func TestLenOfIsImmutableTerm(t *testing.T) {
	// alen terms unify across facts referring to the same array variable.
	s := solver(
		expr.Lt(expr.V("i"), expr.LenOf{Base: "a"}),
		expr.Eq(expr.LenOf{Base: "a"}, expr.I(100)),
	)
	if !s.ProveLt(expr.V("i"), expr.I(100)) {
		t.Error("alen equality not used")
	}
}

func TestFMGivesUpGracefully(t *testing.T) {
	// A query over many unconstrained opaque terms must return false
	// (not hang or wrongly prove).
	var facts []expr.Expr
	for i := 0; i < 30; i++ {
		facts = append(facts, expr.Le(
			expr.Mul(expr.V(expr.Var(fmt.Sprintf("x%d", i))), expr.V(expr.Var(fmt.Sprintf("y%d", i)))),
			expr.V(expr.Var(fmt.Sprintf("z%d", i)))))
	}
	s := New(facts)
	if s.ProveLt(expr.V("x0"), expr.V("q")) {
		t.Error("unconstrained query wrongly proved")
	}
}

func TestEntailmentMonotoneUnderExtraFacts(t *testing.T) {
	// Adding facts never removes entailments (on a consistent set).
	base := []expr.Expr{expr.Lt(expr.V("i"), expr.V("n"))}
	q := expr.Le(expr.V("i"), expr.Sub(expr.V("n"), expr.I(1)))
	if !New(base).Entails(q) {
		t.Fatal("base entailment missing")
	}
	extended := append(append([]expr.Expr{}, base...),
		expr.Ge(expr.V("i"), expr.I(0)),
		expr.Eq(expr.V("m"), expr.Add(expr.V("n"), expr.I(4))),
	)
	if !New(extended).Entails(q) {
		t.Error("entailment lost after adding facts")
	}
}

// refFMUnsat is a reference Fourier–Motzkin over string-keyed
// coefficient maps, with the rules fm.unsat must keep: variables in
// sorted-key order chosen by minimum pos*neg-(pos+neg) with first-wins
// ties, first-occurrence dedup by rendered key, and the same give-ups.
func refFMUnsat(system []expr.Linear) bool {
	type form struct {
		c     int64
		coefs map[string]int64
	}
	key := func(f form) string {
		ks := make([]string, 0, len(f.coefs))
		for k := range f.coefs {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		s := fmt.Sprint(f.c)
		for _, k := range ks {
			s += fmt.Sprintf("+%d*%s", f.coefs[k], k)
		}
		return s
	}
	tight := func(f form) form {
		var g int64
		for _, c := range f.coefs {
			g = gcd(g, abs64(c))
		}
		if g <= 1 {
			return f
		}
		out := form{floorDiv(f.c, g), map[string]int64{}}
		for k, c := range f.coefs {
			out.coefs[k] = c / g
		}
		return out
	}
	var cur []form
	varSet := map[string]bool{}
	for _, l := range system {
		f := form{l.Const, map[string]int64{}}
		for i := 0; i < l.Len(); i++ {
			t := l.Term(i)
			f.coefs[t.Key.String()] = t.Coef
			varSet[t.Key.String()] = true
		}
		cur = append(cur, f)
	}
	if len(varSet) > maxFMVars {
		return false
	}
	var vars []string
	for k := range varSet {
		vars = append(vars, k)
	}
	sort.Strings(vars)
	for len(vars) > 0 {
		bestIdx, bestCost := -1, 1<<62
		for i, v := range vars {
			pos, neg := 0, 0
			for _, f := range cur {
				if c := f.coefs[v]; c > 0 {
					pos++
				} else if c < 0 {
					neg++
				}
			}
			if cost := pos*neg - (pos + neg); cost < bestCost {
				bestCost, bestIdx = cost, i
			}
		}
		v := vars[bestIdx]
		vars = append(vars[:bestIdx], vars[bestIdx+1:]...)
		var pos, neg, next []form
		for _, f := range cur {
			switch c := f.coefs[v]; {
			case c > 0:
				pos = append(pos, f)
			case c < 0:
				neg = append(neg, f)
			default:
				next = append(next, f)
			}
		}
		if len(pos)*len(neg)+len(next) > maxFMConstraints {
			return false
		}
		for _, p := range pos {
			for _, n := range neg {
				a, b := p.coefs[v], -n.coefs[v]
				comb := form{b*p.c + a*n.c, map[string]int64{}}
				for k, c := range p.coefs {
					comb.coefs[k] += b * c
				}
				for k, c := range n.coefs {
					comb.coefs[k] += a * c
				}
				for k, c := range comb.coefs {
					if c == 0 {
						delete(comb.coefs, k)
					}
				}
				comb = tight(comb)
				if len(comb.coefs) == 0 {
					if comb.c < 0 {
						return true
					}
					continue
				}
				next = append(next, comb)
			}
		}
		seen := map[string]bool{}
		cur = cur[:0]
		for _, f := range next {
			if k := key(f); !seen[k] {
				seen[k] = true
				cur = append(cur, f)
			}
		}
	}
	for _, f := range cur {
		if len(f.coefs) == 0 && f.c < 0 {
			return true
		}
	}
	return false
}

// TestDenseFMMatchesReference: the dense-row elimination decides every
// random system as the map-based reference does.  One fm runs them all,
// its keys merged as proveNonNeg merges them, so every run reuses storage
// left by the one before, whichever way that one returned: unsat, sat,
// past the variable give-up or past the row give-up.
func TestDenseFMMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	names := []string{"i", "j", "k", "n", "$t1", "i'"}
	varName := func(v int) expr.Var { return expr.Var(names[v%len(names)] + fmt.Sprint(v/len(names))) }
	randForm := func(nvars int) expr.Linear {
		l := expr.Linear{Const: int64(r.Intn(13) - 6)}
		for v := 0; v < nvars; v++ {
			if r.Intn(2) == 0 {
				l.AddTerm(expr.VarKey(varName(v)), expr.V(varName(v)), int64(r.Intn(9)-4))
			}
		}
		return l
	}
	// tooManyRows has 73 rows positive and 73 negative in each of its two
	// columns, so eliminating either would combine 5329 > maxFMConstraints
	// rows; without the give-up its last two rows would prove it unsat.
	tooManyRows := func() []expr.Linear {
		var system []expr.Linear
		for i := 0; i < 144; i++ {
			l := expr.Linear{Const: int64(r.Intn(50))}
			for v, sign := range []int64{1 - 2*int64(i%2), 1 - 2*int64(i/2%2)} {
				l.AddTerm(expr.VarKey(varName(v)), expr.V(varName(v)), sign)
			}
			system = append(system, l)
		}
		return append(system, expr.Linear{Const: -1}.AddLinear(system[0], 1), expr.Linear{Const: -1}.AddLinear(system[0], -1))
	}
	f := new(fm)
	var unsat, rowGiveUps int
	for n := 0; n < 3000; n++ {
		var system []expr.Linear
		switch n % 100 {
		case 0:
			system = make([]expr.Linear, 1+r.Intn(16))
			for i := range system {
				system[i] = randForm(maxFMVars + 1)
			}
		case 50:
			system = tooManyRows()
		default:
			system = make([]expr.Linear, 1+r.Intn(16))
			nvars := 1 + r.Intn(8)
			for i := range system {
				system[i] = randForm(nvars)
			}
		}
		last := len(system) - 1
		vars := f.mergeKeys(sortedKeys(system[:last]), system[last])
		got, want := f.unsat(system, vars), refFMUnsat(system)
		if got != want {
			t.Fatalf("system %d: unsat = %v, reference %v: %v", n, got, want, system)
		}
		switch {
		case n%100 == 50 && got:
			t.Fatalf("system %d: unsat past the row give-up", n)
		case n%100 == 50:
			rowGiveUps++
		case got:
			unsat++
		}
	}
	if unsat == 0 || rowGiveUps == 0 {
		t.Fatalf("%d unsatisfiable systems and %d row give-ups drawn; the comparison proves little", unsat, rowGiveUps)
	}
}
