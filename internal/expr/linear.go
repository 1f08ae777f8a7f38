package expr

import (
	"cmp"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// TermKey names an atomic term of a linear form.  Its rendering is a
// prefix chosen by Kind followed by Name: "v:" for variables, "h:" for
// heap selections and alen, "o:" for opaque sub-expressions and "mod:"
// for the solver's residue classes.  The prefixes differ in their first
// byte, so keys order by (Kind, Name) exactly as their renderings order.
type TermKey struct {
	Kind byte
	Name string
}

// Term kinds.
const (
	KindHeap   byte = 'h'
	KindMod    byte = 'm'
	KindOpaque byte = 'o'
	KindVar    byte = 'v'
)

// VarKey is the key of variable v.
func VarKey(v Var) TermKey { return TermKey{KindVar, string(v)} }

func (k TermKey) prefix() string {
	switch k.Kind {
	case KindHeap:
		return "h:"
	case KindMod:
		return "mod:"
	case KindOpaque:
		return "o:"
	case KindVar:
		return "v:"
	}
	panic("expr: unknown term kind " + strconv.Quote(string(k.Kind)))
}

// Append appends the key's rendering to b.
func (k TermKey) Append(b []byte) []byte { return append(append(b, k.prefix()...), k.Name...) }

// String renders the key, e.g. "v:i".
func (k TermKey) String() string { return k.prefix() + k.Name }

// Compare orders keys as their renderings order: it returns -1, 0 or
// +1 as k sorts before, equal to or after o.
func (k TermKey) Compare(o TermKey) int {
	if c := cmp.Compare(k.Kind, o.Kind); c != 0 {
		return c
	}
	return strings.Compare(k.Name, o.Name)
}

// Term is one atomic term of a linear form: its key, its nonzero
// coefficient, and a representative expression.
type Term struct {
	Key  TermKey
	Coef int64
	Expr Expr
}

// Linear is a linear combination of atomic terms with integer
// coefficients plus a constant: Const + sum(coef * term).  Atomic terms
// are variables and opaque (non-linear or heap) sub-expressions keyed by
// their canonical rendering.  The entailment solver works over this
// normal form.
//
// The terms are kept sorted by key, each key once with a nonzero
// coefficient.  A key's representative expression is the one most
// recently added under that key; FromLinear prints it.  Methods with a
// value receiver never modify the receiver's terms; AddTerm and
// Accumulate modify them in place, so they are only for forms the caller
// built itself and shares with no one.
type Linear struct {
	Const int64
	terms []Term
}

// Len returns the number of terms.
func (l Linear) Len() int { return len(l.terms) }

// Term returns the i-th term in key order.
func (l Linear) Term(i int) Term { return l.terms[i] }

// Coef returns the coefficient of key (0 if absent).
func (l Linear) Coef(key TermKey) int64 {
	if i, ok := l.find(key); ok {
		return l.terms[i].Coef
	}
	return 0
}

// find returns the index of key, or where it would be inserted.
func (l Linear) find(key TermKey) (int, bool) {
	return slices.BinarySearchFunc(l.terms, key, func(t Term, k TermKey) int { return t.Key.Compare(k) })
}

// AddTerm adds coef*term to the form in place, keyed by key.
func (l *Linear) AddTerm(key TermKey, term Expr, coef int64) {
	if coef == 0 {
		return
	}
	i, ok := l.find(key)
	if !ok {
		l.terms = slices.Insert(l.terms, i, Term{key, coef, term})
		return
	}
	if n := l.terms[i].Coef + coef; n != 0 {
		l.terms[i].Coef = n
		l.terms[i].Expr = term
		return
	}
	l.terms = slices.Delete(l.terms, i, i+1)
}

// AddExpr adds k*Linearize(e) to the form in place, term by term in the
// order Linearize adds them, so l.AddExpr(a, 1); l.AddExpr(b, -1) builds
// Linearize(Sub(a, b)).
func (l *Linear) AddExpr(e Expr, k int64) {
	linearize(e, k, l)
	l.normalize()
}

// push appends coef*term under key without keeping the terms sorted and
// merged; normalize restores that.  Pushing n terms and normalizing once
// costs O(n log n) where n AddTerm calls would cost O(n²).
func (l *Linear) push(key TermKey, term Expr, coef int64) {
	if coef != 0 {
		l.terms = append(l.terms, Term{key, coef, term})
	}
}

// normalize sorts pushed terms by key, stably, and merges each key's run
// into one term with the run's coefficient sum and its last expression,
// dropping zero sums.  That is the form AddTerm builds from the same
// additions in the same order: a key that survives has, as its
// representative, the expression added to it last.
func (l *Linear) normalize() {
	i := 1
	for i < len(l.terms) && l.terms[i-1].Key.Compare(l.terms[i].Key) < 0 {
		i++
	}
	if i >= len(l.terms) {
		return // keys strictly increasing: nothing to merge
	}
	slices.SortStableFunc(l.terms, func(a, b Term) int { return a.Key.Compare(b.Key) })
	out := l.terms[:0]
	for i = 0; i < len(l.terms); {
		t := l.terms[i]
		for i++; i < len(l.terms) && l.terms[i].Key == t.Key; i++ {
			t.Coef += l.terms[i].Coef
			t.Expr = l.terms[i].Expr
		}
		if t.Coef != 0 {
			out = append(out, t)
		}
	}
	clear(l.terms[len(out):])
	l.terms = out
}

// Reset empties the form in place, keeping its storage for reuse.
func (l *Linear) Reset() {
	l.Const = 0
	l.terms = l.terms[:0]
}

// Accumulate adds k*o to the form in place.
func (l *Linear) Accumulate(o Linear, k int64) {
	l.Const += k * o.Const
	for _, t := range o.terms {
		l.AddTerm(t.Key, t.Expr, k*t.Coef)
	}
}

// AddLinear returns l + k*o.
func (l Linear) AddLinear(o Linear, k int64) Linear {
	r := Linear{Const: l.Const, terms: make([]Term, len(l.terms), len(l.terms)+len(o.terms))}
	copy(r.terms, l.terms)
	r.Accumulate(o, k)
	return r
}

// Without returns l with key's term dropped.
func (l Linear) Without(key TermKey) Linear {
	i, ok := l.find(key)
	if !ok {
		return l
	}
	return Linear{Const: l.Const, terms: slices.Delete(slices.Clone(l.terms), i, i+1)}
}

// IsConst reports whether the form has no terms, returning the constant.
func (l Linear) IsConst() (int64, bool) {
	if len(l.terms) == 0 {
		return l.Const, true
	}
	return 0, false
}

// Key returns a canonical string for the whole form, usable for
// deduplication: the constant, then "+coef*key" per term in key order.
func (l Linear) Key() string {
	var buf [64]byte
	return string(l.AppendKey(buf[:0]))
}

// AppendKey appends l.Key() to b.
func (l Linear) AppendKey(b []byte) []byte {
	b = strconv.AppendInt(b, l.Const, 10)
	for _, t := range l.terms {
		b = strconv.AppendInt(append(b, '+'), t.Coef, 10)
		b = t.Key.Append(append(b, '*'))
	}
	return b
}

// String renders the linear form readably.
func (l Linear) String() string { return l.Key() }

// Equal reports whether two linear forms are identical.
func (l Linear) Equal(o Linear) bool {
	if l.Const != o.Const || len(l.terms) != len(o.terms) {
		return false
	}
	for i, t := range l.terms {
		if o.terms[i].Key != t.Key || o.terms[i].Coef != t.Coef {
			return false
		}
	}
	return true
}

// Linearize converts an integer expression into linear normal form.
// Non-linear sub-expressions (products of terms, div, mod, heap
// selections, alen) become opaque atomic terms keyed by their canonical
// rendering, so syntactically equal opaque terms unify.
func Linearize(e Expr) Linear {
	var l Linear
	linearize(e, 1, &l)
	l.normalize()
	return l
}

// linearize pushes k times e's terms onto out in traversal order; the
// caller normalizes.

func linearize(e Expr, k int64, out *Linear) {
	switch x := e.(type) {
	case IntLit:
		out.Const += k * x.Val
	case VarRef:
		out.push(VarKey(x.Name), e, k)
	case Unary:
		if x.Op == OpNeg {
			linearize(x.X, -k, out)
			return
		}
		out.push(TermKey{KindOpaque, e.String()}, e, k)
	case Binary:
		switch x.Op {
		case OpAdd:
			linearize(x.L, k, out)
			linearize(x.R, k, out)
			return
		case OpSub:
			linearize(x.L, k, out)
			linearize(x.R, -k, out)
			return
		case OpMul:
			linearizeProduct(e, k, out)
			return
		case OpDiv:
			// Constant folding only; otherwise opaque.  BFJ / and % are
			// floored (Euclidean for positive divisors), which keeps the
			// solver's congruence reasoning sound.
			if lc, ok := constOf(x.L); ok {
				if rc, ok2 := constOf(x.R); ok2 && rc != 0 {
					out.Const += k * FloorDiv(lc, rc)
					return
				}
			}
		case OpMod:
			if lc, ok := constOf(x.L); ok {
				if rc, ok2 := constOf(x.R); ok2 && rc != 0 {
					out.Const += k * FloorMod(lc, rc)
					return
				}
			}
		}
		out.push(TermKey{KindOpaque, canonOpaque(x)}, e, k)
	case FieldSel, IndexSel, LenOf:
		out.push(TermKey{KindHeap, e.String()}, e, k)
	default:
		// Booleans are not integers; treat them (and anything else) as
		// opaque to stay total.
		out.push(TermKey{KindOpaque, e.String()}, e, k)
	}
}

// FloorDiv is floored integer division: the quotient rounds toward
// negative infinity.  BFJ's / operator uses this semantics.
func FloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// FloorMod is the remainder matching FloorDiv: a == FloorDiv(a,b)*b +
// FloorMod(a,b), with the result taking the divisor's sign.  BFJ's %
// operator uses this semantics, so i % 2 is always 0 or 1 for i of any
// sign.
func FloorMod(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

// constOf reports whether e's linear form has no terms, and its
// constant.
func constOf(e Expr) (int64, bool) {
	if d := resolveConst(e); d.v == isConst {
		return d.c, true
	}
	return 0, false
}

// constness is what a verdict tells about a linear form.
type constness uint8

const (
	isConst   constness = iota // no terms
	hasTerms                   // at least one term
	mayCancel                  // undecided: built on a sum of two forms with terms
)

// verdict is what decideConst tells about a linear form without building
// it.  Unless undecided it carries the form's constant, and with terms
// the fewest trailing zero bits of any coefficient: scaling by c wraps
// every coefficient to zero exactly when that count plus c's reaches 64.
type verdict struct {
	c  int64
	tz int
	v  constness
}

// decideConst decides in one pass over e whether e's linear form has
// terms; sums of two forms with terms, and what is built on them, stay
// undecided.
func decideConst(e Expr) verdict {
	switch x := e.(type) {
	case IntLit:
		return verdict{c: x.Val, v: isConst}
	case Unary:
		if x.Op == OpNeg {
			d := decideConst(x.X)
			d.c = -d.c
			return d
		}
	case Binary:
		switch x.Op {
		case OpAdd, OpSub:
			l, r := decideConst(x.L), decideConst(x.R)
			if x.Op == OpSub {
				r.c = -r.c
			}
			switch {
			case l.v == mayCancel || r.v == mayCancel || l.v == hasTerms && r.v == hasTerms:
				return verdict{v: mayCancel}
			case l.v == hasTerms:
				return verdict{l.c + r.c, l.tz, hasTerms}
			case r.v == hasTerms:
				return verdict{l.c + r.c, r.tz, hasTerms}
			}
			return verdict{c: l.c + r.c, v: isConst}
		case OpMul:
			return mulVerdict(decideConst(x.L), decideConst(x.R))
		case OpDiv, OpMod:
			l, r := decideConst(x.L), decideConst(x.R)
			switch {
			case l.v == isConst && r.v == isConst && r.c != 0:
				if x.Op == OpDiv {
					return verdict{c: FloorDiv(l.c, r.c), v: isConst}
				}
				return verdict{c: FloorMod(l.c, r.c), v: isConst}
			case l.v == mayCancel && r.v != hasTerms || r.v == mayCancel && l.v != hasTerms:
				return verdict{v: mayCancel}
			}
		}
	}
	return verdict{v: hasTerms}
}

// mulVerdict is the verdict on a product of forms with verdicts l and
// r: a constant times a form scales it, and two forms with terms make
// an opaque term.
func mulVerdict(l, r verdict) verdict {
	if l.v != isConst {
		l, r = r, l
	}
	switch {
	case l.v != isConst && (l.v == mayCancel || r.v == mayCancel):
		return verdict{v: mayCancel}
	case l.v != isConst:
		return verdict{v: hasTerms}
	case l.c == 0 || r.v == isConst:
		return verdict{c: l.c * r.c, v: isConst}
	case r.v == mayCancel:
		return verdict{v: mayCancel}
	}
	if tz := r.tz + bits.TrailingZeros64(uint64(l.c)); tz < 64 {
		return verdict{l.c * r.c, tz, hasTerms}
	}
	return verdict{c: l.c * r.c, v: isConst}
}

// resolveConst is decideConst with an undecided verdict settled on e's
// form, built once.
func resolveConst(e Expr) verdict {
	if d := decideConst(e); d.v != mayCancel {
		return d
	}
	var l Linear
	foldLinear(e, 1, &l)
	l.normalize()
	if l.Len() == 0 {
		return verdict{c: l.Const, v: isConst}
	}
	d := verdict{c: l.Const, tz: 64, v: hasTerms}
	for _, t := range l.terms {
		d.tz = min(d.tz, bits.TrailingZeros64(uint64(t.Coef)))
	}
	return d
}

// linearizeProduct adds k*e to out for a product e: a constant factor
// scales the other factor, and two factors with terms make an opaque
// term.  The parser builds a chain a*b*c*… left-deep in a loop, which
// the nesting limit does not bound, so the verdicts on every product
// along e's left spine come from one bottom-up pass instead of one
// constOf per level.
func linearizeProduct(e Expr, k int64, out *Linear) {
	// left and right are the verdicts on p's operands; e is p as an Expr.
	type product struct {
		e           Expr
		p           Binary
		left, right verdict
	}
	var buf [4]product
	spine := append(buf[:0], product{e: e, p: e.(Binary)})
	for {
		l := spine[len(spine)-1].p.L
		b, ok := l.(Binary)
		if !ok || b.Op != OpMul {
			break
		}
		spine = append(spine, product{e: l, p: b})
	}
	last := len(spine) - 1
	spine[last].left = resolveConst(spine[last].p.L)
	for i := last; i > 0; i-- {
		spine[i].right = resolveConst(spine[i].p.R)
		spine[i-1].left = mulVerdict(spine[i].left, spine[i].right)
	}
	for i, s := range spine {
		if s.left.v == isConst {
			linearize(s.p.R, k*s.left.c, out)
			return
		}
		if i == 0 {
			// Only the top product's right operand is not yet decided.
			s.right = resolveConst(s.p.R)
		}
		if s.right.v != isConst {
			out.push(TermKey{KindOpaque, canonOpaque(s.p)}, s.e, k)
			return
		}
		k *= s.right.c
		if i == last {
			linearize(s.p.L, k, out)
		}
	}
}

// foldLinear pushes k times e's linear form onto out; the caller
// normalizes.  It decides each product, quotient and remainder on its
// operands' forms, so it visits every node once; the representatives it
// keeps may differ from Linearize's, the keys and coefficients do not.
func foldLinear(e Expr, k int64, out *Linear) {
	switch x := e.(type) {
	case IntLit:
		out.Const += k * x.Val
		return
	case Unary:
		if x.Op == OpNeg {
			foldLinear(x.X, -k, out)
			return
		}
	case Binary:
		switch x.Op {
		case OpAdd:
			foldLinear(x.L, k, out)
			foldLinear(x.R, k, out)
			return
		case OpSub:
			foldLinear(x.L, k, out)
			foldLinear(x.R, -k, out)
			return
		case OpMul, OpDiv, OpMod:
			var lf, rf Linear
			foldLinear(x.R, 1, &rf)
			rf.normalize()
			rc, rok := rf.IsConst()
			if x.Op == OpMul && rok {
				// A constant right operand scales the left one in place,
				// so a left-deep chain of products needs no scratch form.
				foldLinear(x.L, k*rc, out)
				return
			}
			foldLinear(x.L, 1, &lf)
			lf.normalize()
			lc, lok := lf.IsConst()
			switch {
			case x.Op == OpMul && lok:
				out.Const += k * lc * rf.Const
				for _, t := range rf.terms {
					out.push(t.Key, t.Expr, k*lc*t.Coef)
				}
			case x.Op == OpDiv && lok && rok && rc != 0:
				out.Const += k * FloorDiv(lc, rc)
			case x.Op == OpMod && lok && rok && rc != 0:
				out.Const += k * FloorMod(lc, rc)
			default:
				out.push(TermKey{KindOpaque, canonOpaque(x)}, e, k)
			}
			return
		}
	}
	// What is left is an atomic term, which linearize pushes without
	// consulting constOf.
	linearize(e, k, out)
}

// canonOpaque gives non-linear expressions a canonical key so that, e.g.,
// x*y and y*x unify as the same opaque term.
func canonOpaque(e Binary) string {
	if e.Op == OpMul {
		var lb, rb [32]byte
		ls, rs := appendParen(lb[:0], e.L), appendParen(rb[:0], e.R)
		if string(rs) < string(ls) {
			ls, rs = rs, ls
		}
		var buf [64]byte
		return string(append(append(append(buf[:0], ls...), '*'), rs...))
	}
	return e.String()
}

// Diff returns Linearize(a) - Linearize(b); zero means a and b are
// syntactically-provably equal integers.
func Diff(a, b Expr) Linear {
	l := Linearize(a)
	l.Accumulate(Linearize(b), -1)
	return l
}

// FromLinear reconstructs an expression from a linear form (used by the
// coalescer when synthesizing merged range bounds).
func FromLinear(l Linear) Expr {
	var e Expr
	for _, t := range l.terms {
		var piece Expr
		switch {
		case t.Coef == 1:
			piece = t.Expr
		case t.Coef == -1:
			piece = Unary{OpNeg, t.Expr}
		default:
			piece = Binary{OpMul, IntLit{t.Coef}, t.Expr}
		}
		if e == nil {
			e = piece
		} else {
			e = Binary{OpAdd, e, piece}
		}
	}
	if e == nil {
		return IntLit{l.Const}
	}
	if l.Const != 0 {
		e = Binary{OpAdd, e, IntLit{l.Const}}
	}
	return e
}
