// Package entail decides the entailment judgments of BigFoot's static
// analysis: H ⊢ be for boolean facts, and the derived equality and
// inequality queries used for path and range reasoning.
//
// The paper discharges these queries with Z3; the queries actually
// generated by the analysis fall into a small fragment — conjunctions of
// linear integer (in)equalities over method-local variables, extended
// with heap alias terms (y.f, y[z], alen(y)) treated congruently — for
// which this package implements a dedicated, complete-in-practice
// decision procedure:
//
//  1. equalities are eliminated by Gaussian substitution, canonicalizing
//     variables and alias terms to representative linear forms;
//  2. the remaining inequalities are closed under integer tightening
//     (gcd normalization) and tested for rational unsatisfiability with
//     Fourier–Motzkin elimination, which is sound for proving integer
//     entailments.
//
// All queries are of the form "does H entail q"; the solver answers true
// only when the entailment is certain, so imprecision can only make the
// downstream check placement more conservative (never unsound).
package entail

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"bigfoot/internal/expr"
)

// Limits bounding the Fourier–Motzkin elimination.  Exceeding them makes
// the solver give up (returning "not entailed"), which is sound.
const (
	maxFMConstraints = 4000
	maxFMVars        = 64
)

// Solver holds a set of boolean hypotheses in solved form and answers
// entailment queries against them.  A Solver is immutable after creation
// apart from its query caches, so it is not safe for concurrent use.
type Solver struct {
	// sub maps an eliminated term to its solved linear form over the
	// remaining terms.
	sub map[expr.TermKey]expr.Linear
	// ineqs are canonicalized constraints, each meaning l >= 0.
	ineqs []expr.Linear
	// diseqs are canonicalized constraints, each meaning l != 0.
	diseqs []expr.Linear
	// lits holds opaque boolean facts by canonical rendering.
	lits map[string]bool

	// entailed caches Entails by the query's rendering; nonNeg caches
	// proveNonNeg by the canonical form's Key.
	entailed, nonNeg map[string]bool

	// lin and query are scratch storage, reused by every query: the
	// linearization being canonicalized and the query's canonical form.
	// A user takes one (leaving the zero form) and puts it back when
	// done, so nested users never share storage.
	lin, query expr.Linear
	// ineqKeys are the sorted distinct term keys of ineqs (computed on
	// the first refutation); system and fm are the refutations' storage.
	ineqKeys []expr.TermKey
	system   []expr.Linear
	fm       fm

	// queries counts the queries answered, cached answers included.
	queries int
}

// New builds a solver from the hypothesis set.  Conjunctions are split;
// equalities feed Gaussian substitution; comparisons become linear
// constraints; anything else is recorded for syntactic entailment.
func New(facts []expr.Expr) *Solver {
	s := &Solver{
		sub:      map[expr.TermKey]expr.Linear{},
		lits:     map[string]bool{},
		entailed: map[string]bool{},
		nonNeg:   map[string]bool{},
	}
	var flat []expr.Expr
	for _, f := range facts {
		flatten(f, &flat)
	}

	// Phase 1: Gaussian elimination over equalities.  Iterate to a
	// fixpoint so later equalities can use earlier substitutions.
	eqs := make([]expr.Expr, 0, len(flat))
	var rest []expr.Expr
	for _, f := range flat {
		if b, ok := f.(expr.Binary); ok && b.Op == expr.OpEq {
			eqs = append(eqs, f)
		} else {
			rest = append(rest, f)
		}
	}
	// Absorb equalities in two phases: first those solvable for a plain
	// variable, then those keyed by heap/mod terms.  The phase split
	// keeps term keys canonical — a mod or selection term's key embeds
	// the variables it mentions, so all variable eliminations must be
	// known before such a key is minted.
	pending := eqs
	for _, varsOnly := range []bool{true, false} {
		for changed := true; changed; {
			changed = false
			var next []expr.Expr
			for _, eq := range pending {
				b := eq.(expr.Binary)
				l := s.canonLinear(b.L, b.R)
				if s.absorbEquality(l, varsOnly) {
					changed = true
				} else {
					next = append(next, eq)
				}
			}
			pending = next
		}
	}
	// Unabsorbed equalities become paired inequalities.
	for _, eq := range pending {
		b := eq.(expr.Binary)
		l := s.canonLinear(b.L, b.R)
		s.ineqs = append(s.ineqs, tighten(l), tighten(negate(l)))
	}

	// Phase 2: comparisons and opaque facts.
	for _, f := range rest {
		s.addFact(f)
	}
	return s
}

func flatten(f expr.Expr, out *[]expr.Expr) {
	if b, ok := f.(expr.Binary); ok && b.Op == expr.OpAnd {
		flatten(b.L, out)
		flatten(b.R, out)
		return
	}
	if bl, ok := f.(expr.BoolLit); ok && bl.Val {
		return // trivially true
	}
	*out = append(*out, f)
}

// absorbEquality tries to solve l == 0 for some term with coefficient ±1
// and record the substitution. Reports whether it succeeded.  With
// varsOnly set, only plain-variable terms are eligible for elimination.
func (s *Solver) absorbEquality(l expr.Linear, varsOnly bool) bool {
	if c, ok := l.IsConst(); ok {
		// 0 == 0 is trivial; c != 0 means contradictory hypotheses, under
		// which everything is entailed. Record a poisoned constraint.
		if c != 0 {
			s.ineqs = append(s.ineqs, constLinear(-1))
		}
		return true
	}
	// Prefer eliminating plain variables over heap terms, and prefer
	// primed/temp names (renaming artifacts) over source names so that
	// canonical forms read naturally.  The candidates start in key order;
	// the (unstable) rank sort then fixes the order they are tried in.
	keys := make([]expr.TermKey, l.Len())
	for i := range keys {
		keys[i] = l.Term(i).Key
	}
	sort.Slice(keys, func(i, j int) bool { return elimRank(keys[i]) > elimRank(keys[j]) })
	for _, k := range keys {
		if varsOnly && k.Kind != expr.KindVar {
			continue
		}
		c := l.Coef(k)
		if c != 1 && c != -1 {
			continue
		}
		// Solve: k = -(l - c*k)/c, dividing by -c in {1,-1}.
		s.sub[k] = expr.Linear{}.AddLinear(l.Without(k), -c)
		// Re-canonicalize existing state under the new substitution.
		s.resubstitute()
		return true
	}
	return false
}

func elimRank(k expr.TermKey) int {
	switch {
	case k.Kind != expr.KindVar:
		return 1 // heap terms last
	case strings.HasPrefix(k.Name, "$"): // parser temps first
		return 4
	case strings.HasSuffix(k.Name, "'"):
		return 3
	default:
		return 2
	}
}

// resubstitute re-applies the substitution map to itself and to the
// accumulated constraints so forms stay fully reduced.
func (s *Solver) resubstitute() {
	for k, v := range s.sub {
		s.sub[k] = s.applySub(v, k)
	}
	for i := range s.ineqs {
		s.ineqs[i] = s.applySub(s.ineqs[i], expr.TermKey{})
	}
	for i := range s.diseqs {
		s.diseqs[i] = s.applySub(s.diseqs[i], expr.TermKey{})
	}
}

// applySub rewrites l replacing every substituted term (except skip, to
// preserve the solved-for key itself) until fixpoint.  A form with no
// substituted term is returned as is.
func (s *Solver) applySub(l expr.Linear, skip expr.TermKey) expr.Linear {
	for iter := 0; iter < 100 && s.hasSub(l, skip); iter++ {
		out := expr.Linear{Const: l.Const}
		for i := 0; i < l.Len(); i++ {
			t := l.Term(i)
			if rep, ok := s.sub[t.Key]; ok && t.Key != skip {
				out.Accumulate(rep, t.Coef)
			} else {
				out.AddTerm(t.Key, t.Expr, t.Coef)
			}
		}
		l = out
	}
	return l
}

// hasSub reports whether some term of l other than skip is substituted.
func (s *Solver) hasSub(l expr.Linear, skip expr.TermKey) bool {
	if len(s.sub) == 0 {
		return false
	}
	for i := 0; i < l.Len(); i++ {
		if k := l.Term(i).Key; k != skip {
			if _, ok := s.sub[k]; ok {
				return true
			}
		}
	}
	return false
}

func (s *Solver) addFact(f expr.Expr) {
	switch x := f.(type) {
	case expr.Binary:
		switch x.Op {
		case expr.OpLe:
			s.ineqs = append(s.ineqs, tighten(s.canonLinear(x.R, x.L)))
			return
		case expr.OpLt:
			l := s.canonLinear(x.R, x.L)
			l.Const--
			s.ineqs = append(s.ineqs, tighten(l))
			return
		case expr.OpGe:
			s.ineqs = append(s.ineqs, tighten(s.canonLinear(x.L, x.R)))
			return
		case expr.OpGt:
			l := s.canonLinear(x.L, x.R)
			l.Const--
			s.ineqs = append(s.ineqs, tighten(l))
			return
		case expr.OpNe:
			s.diseqs = append(s.diseqs, s.canonLinear(x.L, x.R))
			return
		}
	case expr.BoolLit:
		if !x.Val {
			// "false" hypothesis: everything entailed.
			s.ineqs = append(s.ineqs, constLinear(-1))
		}
		return
	}
	s.lits[s.canonBoolKey(f)] = true
}

// ---------------------------------------------------------------------------
// Canonicalization
// ---------------------------------------------------------------------------

// canonLinear linearizes a - b (a alone when b is nil) and rewrites
// every term through the substitution map, canonicalizing heap-select
// terms congruently.  The terms are canonicalized in key order, each
// adding its canonical form times its coefficient.
func (s *Solver) canonLinear(a, b expr.Expr) expr.Linear {
	var out expr.Linear
	s.canonInto(&out, a, b)
	return out
}

// canonQuery is canonLinear into the solver's query scratch form, for a
// query that puts it back (s.query = d) once it is done with d.
func (s *Solver) canonQuery(a, b expr.Expr) expr.Linear {
	out := s.query
	s.query = expr.Linear{}
	s.canonInto(&out, a, b)
	return out
}

func (s *Solver) canonInto(out *expr.Linear, a, b expr.Expr) {
	l := s.lin
	s.lin = expr.Linear{}
	l.Reset()
	l.AddExpr(a, 1)
	if b != nil {
		l.AddExpr(b, -1)
	}
	out.Reset()
	out.Const = l.Const
	for i := 0; i < l.Len(); i++ {
		t := l.Term(i)
		s.addCanonTerm(out, t.Key, t.Expr, t.Coef)
	}
	s.lin = l
}

// addCanonTerm adds c times the canonical linear form of one atomic term
// to out.
func (s *Solver) addCanonTerm(out *expr.Linear, key expr.TermKey, t expr.Expr, c int64) {
	if rep, ok := s.sub[key]; ok {
		out.Accumulate(s.applySub(rep, expr.TermKey{}), c)
		return
	}
	switch x := t.(type) {
	case expr.Binary:
		if x.Op == expr.OpMod {
			if m, ok := expr.Linearize(x.R).IsConst(); ok && m > 1 {
				// Canonicalize (e % m): canonicalize e, reduce every
				// coefficient and the constant mod m (valid since adding
				// multiples of m to e does not change e % m), fold when
				// constant.  This gives the solver congruence reasoning,
				// e.g. {i % 2 == 0, j = i + 2} ⊢ j % 2 == 0.
				inner := s.canonLinear(x.L, nil)
				reduced := expr.Linear{Const: ((inner.Const % m) + m) % m}
				for i := 0; i < inner.Len(); i++ {
					it := inner.Term(i)
					reduced.AddTerm(it.Key, it.Expr, ((it.Coef%m)+m)%m)
				}
				if rc, ok := reduced.IsConst(); ok {
					// Caveat: this is exact only when the reduced form is
					// constant; otherwise the residue still depends on the
					// remaining terms, so keep it opaque-but-canonical.
					out.Const += c * (rc % m)
					return
				}
				var buf [64]byte
				name := strconv.AppendInt(append(reduced.AppendKey(buf[:0]), '%'), m, 10)
				nt := expr.Bin(expr.OpMod, expr.FromLinear(reduced), expr.I(m))
				s.addAtom(out, expr.TermKey{Kind: expr.KindMod, Name: string(name)}, nt, c)
				return
			}
		}
	case expr.IndexSel:
		base := s.canonVar(x.Base)
		idx := s.canonLinear(x.Index, nil)
		var buf [64]byte
		name := append(idx.AppendKey(append(append(buf[:0], base...), '[')), ']')
		nt := expr.IndexSel{Base: base, Index: expr.FromLinear(idx)}
		s.addAtom(out, expr.TermKey{Kind: expr.KindHeap, Name: string(name)}, nt, c)
		return
	case expr.FieldSel:
		nt := expr.FieldSel{Base: s.canonVar(x.Base), Field: x.Field}
		s.addAtom(out, expr.TermKey{Kind: expr.KindHeap, Name: nt.String()}, nt, c)
		return
	case expr.LenOf:
		nt := expr.LenOf{Base: s.canonVar(x.Base)}
		s.addAtom(out, expr.TermKey{Kind: expr.KindHeap, Name: nt.String()}, nt, c)
		return
	}
	out.AddTerm(key, t, c)
}

// addAtom adds c times the atom (key, t), or its substitution, to out.
func (s *Solver) addAtom(out *expr.Linear, key expr.TermKey, t expr.Expr, c int64) {
	if rep, ok := s.sub[key]; ok {
		out.Accumulate(s.applySub(rep, expr.TermKey{}), c)
		return
	}
	out.AddTerm(key, t, c)
}

// canonVar returns the representative variable for v: if v was
// eliminated and its solved form is exactly another variable, follow
// that chain, stopping at the first variable seen twice.
func (s *Solver) canonVar(v expr.Var) expr.Var {
	var seenBuf [8]expr.Var
	seen := seenBuf[:0]
	for {
		for _, w := range seen {
			if w == v {
				return v
			}
		}
		seen = append(seen, v)
		rep, ok := s.sub[expr.VarKey(v)]
		if !ok {
			return v
		}
		single, okv := singleVar(rep)
		if !okv {
			return v
		}
		v = single
	}
}

func singleVar(l expr.Linear) (expr.Var, bool) {
	if l.Const != 0 || l.Len() != 1 {
		return "", false
	}
	if t := l.Term(0); t.Coef == 1 && t.Key.Kind == expr.KindVar {
		return expr.Var(t.Key.Name), true
	}
	return "", false
}

// canonBoolKey renders an opaque boolean fact canonically: variables are
// replaced by representatives.
func (s *Solver) canonBoolKey(f expr.Expr) string {
	var buf [64]byte
	return string(s.appendBoolKey(buf[:0], f))
}

func (s *Solver) appendBoolKey(b []byte, f expr.Expr) []byte {
	switch x := f.(type) {
	case expr.VarRef:
		return append(b, s.canonVar(x.Name)...)
	case expr.Unary:
		return s.appendBoolKey(append(b, x.Op.String()...), x.X)
	case expr.Binary:
		b = s.appendBoolKey(append(b, '('), x.L)
		b = s.appendBoolKey(append(b, x.Op.String()...), x.R)
		return append(b, ')')
	default:
		return expr.Append(b, f)
	}
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

// Queries returns the number of queries the solver has answered: one
// per call of Entails, ProveEq, ProveNe, ProveLe, ProveLt or ConstDiff.
func (s *Solver) Queries() int { return s.queries }

// Entails reports whether the hypotheses entail the boolean expression q.
func (s *Solver) Entails(q expr.Expr) bool {
	var buf [64]byte
	key := expr.Append(buf[:0], q)
	if v, ok := s.entailed[string(key)]; ok {
		s.queries++
		return v
	}
	// One query, however many comparisons q decomposes into.
	n := s.queries
	v := s.entails(q)
	s.queries = n + 1
	s.entailed[string(key)] = v
	return v
}

func (s *Solver) entails(q expr.Expr) bool {
	switch x := q.(type) {
	case expr.BoolLit:
		return x.Val || s.inconsistent()
	case expr.Binary:
		switch x.Op {
		case expr.OpAnd:
			return s.entails(x.L) && s.entails(x.R)
		case expr.OpOr:
			if s.entails(x.L) || s.entails(x.R) {
				return true
			}
			return s.lits[s.canonBoolKey(q)]
		case expr.OpEq:
			return s.ProveEq(x.L, x.R)
		case expr.OpNe:
			return s.ProveNe(x.L, x.R)
		case expr.OpLe:
			return s.ProveLe(x.L, x.R)
		case expr.OpLt:
			return s.ProveLt(x.L, x.R)
		case expr.OpGe:
			return s.ProveLe(x.R, x.L)
		case expr.OpGt:
			return s.ProveLt(x.R, x.L)
		}
	}
	return s.lits[s.canonBoolKey(q)] || s.inconsistent()
}

// ProveEq reports whether the hypotheses entail a == b.
func (s *Solver) ProveEq(a, b expr.Expr) bool {
	s.queries++
	d := s.canonQuery(a, b)
	defer func() { s.query = d }()
	if c, ok := d.IsConst(); ok {
		return c == 0 || s.inconsistent()
	}
	return s.proveNonNeg(d) && s.proveNonNeg(negate(d))
}

// ProveNe reports whether the hypotheses entail a != b.
func (s *Solver) ProveNe(a, b expr.Expr) bool {
	s.queries++
	d := s.canonQuery(a, b)
	defer func() { s.query = d }()
	if c, ok := d.IsConst(); ok {
		return c != 0 || s.inconsistent()
	}
	nd := negate(d)
	for _, dq := range s.diseqs {
		if dq.Equal(d) || dq.Equal(nd) {
			return true
		}
	}
	lo := d
	lo.Const--
	hi := nd
	hi.Const--
	return s.proveNonNeg(lo) || s.proveNonNeg(hi)
}

// ProveLe reports whether the hypotheses entail a <= b.
func (s *Solver) ProveLe(a, b expr.Expr) bool {
	s.queries++
	d := s.canonQuery(b, a)
	v := s.proveNonNeg(d)
	s.query = d
	return v
}

// ProveLt reports whether the hypotheses entail a < b.
func (s *Solver) ProveLt(a, b expr.Expr) bool {
	s.queries++
	d := s.canonQuery(b, a)
	d.Const--
	v := s.proveNonNeg(d)
	s.query = d
	return v
}

// ConstDiff returns the constant value of a-b if the hypotheses
// determine it exactly.
func (s *Solver) ConstDiff(a, b expr.Expr) (int64, bool) {
	s.queries++
	d := s.canonQuery(a, b)
	defer func() { s.query = d }()
	if c, ok := d.IsConst(); ok {
		return c, true
	}
	// Try to pin the residual with bounds: d <= c and d >= c.
	for _, guess := range s.boundGuesses() {
		shifted := d
		shifted.Const -= guess
		if s.proveNonNeg(shifted) && s.proveNonNeg(negate(shifted)) {
			return guess, true
		}
	}
	return 0, false
}

// boundGuesses proposes candidate constants for pinning a linear form,
// derived from the constraint constants (small search, exact check),
// smallest magnitude first.  Consistent hypotheses pin a form to at most
// one constant; inconsistent ones prove every guess, and 0 comes first.
func (s *Solver) boundGuesses() []int64 {
	out := make([]int64, 0, 3+2*len(s.ineqs))
	out = append(out, 0, 1, -1)
	for _, iq := range s.ineqs {
		out = append(out, iq.Const, -iq.Const)
	}
	slices.SortFunc(out, func(a, b int64) int {
		if c := cmp.Compare(abs64(a), abs64(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	kept := out[:0]
	for i, g := range out {
		if g > -1000 && g < 1000 && (i == 0 || g != out[i-1]) {
			kept = append(kept, g)
		}
	}
	return kept
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// inconsistent reports whether the hypothesis set itself is
// unsatisfiable (under which every query is entailed).
func (s *Solver) inconsistent() bool {
	return s.proveNonNeg(constLinear(-1))
}

// proveNonNeg decides hypotheses ⊨ (l >= 0) by refuting the negation
// l <= -1 with Fourier–Motzkin.
func (s *Solver) proveNonNeg(l expr.Linear) bool {
	var buf [64]byte
	key := l.AppendKey(buf[:0])
	if v, ok := s.nonNeg[string(key)]; ok {
		return v
	}
	neg := negate(l)
	neg.Const-- // -l - 1 >= 0  <=>  l <= -1
	neg = tighten(neg)
	if s.ineqKeys == nil {
		s.ineqKeys = sortedKeys(s.ineqs)
	}
	s.system = append(append(s.system[:0], s.ineqs...), neg)
	v := s.fm.unsat(s.system, s.fm.mergeKeys(s.ineqKeys, neg))
	s.nonNeg[string(key)] = v
	return v
}

// ---------------------------------------------------------------------------
// Fourier–Motzkin core
// ---------------------------------------------------------------------------

func constLinear(c int64) expr.Linear { return expr.Linear{Const: c} }

func negate(l expr.Linear) expr.Linear { return expr.Linear{}.AddLinear(l, -1) }

// tighten divides the constraint l >= 0 by the gcd of its term
// coefficients, flooring the constant — valid over the integers and
// strictly stronger than the rational constraint.
func tighten(l expr.Linear) expr.Linear {
	var g int64
	for i := 0; i < l.Len(); i++ {
		g = gcd(g, abs64(l.Term(i).Coef))
	}
	if g <= 1 {
		return l
	}
	out := expr.Linear{Const: floorDiv(l.Const, g)}
	for i := 0; i < l.Len(); i++ {
		t := l.Term(i)
		out.AddTerm(t.Key, t.Expr, t.Coef/g)
	}
	return out
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
