package ranges

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bigfoot/internal/entail"
	"bigfoot/internal/expr"
)

func solver(facts ...expr.Expr) *entail.Solver { return entail.New(facts) }

func rng(lo, hi, step int64) expr.StridedRange {
	return expr.StridedRange{Lo: expr.I(lo), Hi: expr.I(hi), Step: expr.I(step)}
}

func TestEmpty(t *testing.T) {
	s := solver()
	if !Empty(s, rng(5, 5, 1)) || !Empty(s, rng(7, 3, 1)) {
		t.Error("empty ranges not detected")
	}
	if Empty(s, rng(0, 1, 1)) {
		t.Error("nonempty range misdetected")
	}
	// Symbolic: {i >= n} makes [i, n) empty.
	s2 := solver(expr.Ge(expr.V("i"), expr.V("n")))
	if !Empty(s2, expr.StridedRange{Lo: expr.V("i"), Hi: expr.V("n"), Step: expr.I(1)}) {
		t.Error("symbolically empty range not detected")
	}
}

func TestSubsumesConcrete(t *testing.T) {
	s := solver()
	cases := []struct {
		super, target expr.StridedRange
		want          bool
	}{
		{rng(0, 100, 1), rng(10, 20, 1), true},
		{rng(0, 100, 1), rng(10, 20, 3), true}, // contiguous covers strided
		{rng(10, 20, 1), rng(0, 100, 1), false},
		{rng(0, 100, 2), rng(0, 100, 2), true},
		{rng(0, 100, 2), rng(1, 100, 2), false}, // misaligned
		{rng(0, 100, 2), rng(4, 50, 4), true},   // stride 4 inside stride 2, aligned
		{rng(0, 100, 2), rng(0, 100, 1), false}, // stride 2 cannot cover step 1
		{rng(0, 100, 3), expr.Singleton(expr.I(9)), true},
		{rng(0, 100, 3), expr.Singleton(expr.I(10)), false},
	}
	for i, c := range cases {
		if got := Subsumes(s, c.super, c.target); got != c.want {
			t.Errorf("case %d: Subsumes(%v, %v) = %v, want %v", i, c.super, c.target, got, c.want)
		}
	}
}

func TestSubsumesSymbolic(t *testing.T) {
	// {lo <= i, i+1 <= hi} ⊢ [lo,hi) ⊇ {i}
	s := solver(
		expr.Le(expr.V("lo"), expr.V("i")),
		expr.Lt(expr.V("i"), expr.V("hi")),
	)
	super := expr.StridedRange{Lo: expr.V("lo"), Hi: expr.V("hi"), Step: expr.I(1)}
	if !Subsumes(s, super, expr.Singleton(expr.V("i"))) {
		t.Error("symbolic singleton subsumption failed")
	}
}

func TestCoveredChaining(t *testing.T) {
	s := solver()
	// [0,10) ∪ [10,20) ∪ {20} covers [0,21).
	pieces := []expr.StridedRange{rng(0, 10, 1), rng(10, 20, 1), expr.Singleton(expr.I(20))}
	if !Covered(s, rng(0, 21, 1), pieces) {
		t.Error("chained coverage failed")
	}
	if Covered(s, rng(0, 22, 1), pieces) {
		t.Error("gap at 21 not noticed")
	}
	if Covered(s, rng(0, 21, 1), pieces[:2]) {
		t.Error("missing singleton not noticed")
	}
}

func TestCoveredOutOfOrderPieces(t *testing.T) {
	s := solver()
	pieces := []expr.StridedRange{rng(10, 20, 1), rng(0, 10, 1)}
	if !Covered(s, rng(0, 20, 1), pieces) {
		t.Error("order of pieces should not matter")
	}
}

func TestCoveredResidueInterleave(t *testing.T) {
	s := solver()
	pieces := []expr.StridedRange{rng(0, 100, 2), rng(1, 100, 2)}
	if !Covered(s, rng(0, 100, 1), pieces) {
		t.Error("even+odd columns should cover the contiguous range")
	}
	if Covered(s, rng(0, 100, 1), pieces[:1]) {
		t.Error("even column alone cannot cover step-1 range")
	}
}

func TestCoveredSymbolicLoopShape(t *testing.T) {
	// The Fig. 6(b) obligation: {i = i'+1, i' >= 0} ⊢ [0,i) covered by
	// [0,i') ∪ {i'} (the bound fact comes from the loop invariant and is
	// needed to order the cursor against the piece's upper bound).
	s := solver(
		expr.Eq(expr.V("i"), expr.Add(expr.V("i'"), expr.I(1))),
		expr.Ge(expr.V("i'"), expr.I(0)),
	)
	target := expr.StridedRange{Lo: expr.I(0), Hi: expr.V("i"), Step: expr.I(1)}
	pieces := []expr.StridedRange{
		{Lo: expr.I(0), Hi: expr.V("i'"), Step: expr.I(1)},
		expr.Singleton(expr.V("i'")),
	}
	if !Covered(s, target, pieces) {
		t.Error("loop back-edge coverage failed")
	}
}

func TestCoveredStridedLoopShape(t *testing.T) {
	// Strided variant: {i = i'+2, (i'-0)%2 == 0, i' >= 0} ⊢ [0,i):2
	// covered by [0,i'):2 ∪ {i'}.
	s := solver(
		expr.Eq(expr.V("i"), expr.Add(expr.V("i'"), expr.I(2))),
		expr.Eq(expr.Bin(expr.OpMod, expr.Sub(expr.V("i'"), expr.I(0)), expr.I(2)), expr.I(0)),
		expr.Ge(expr.V("i'"), expr.I(0)),
	)
	target := expr.StridedRange{Lo: expr.I(0), Hi: expr.V("i"), Step: expr.I(2)}
	pieces := []expr.StridedRange{
		{Lo: expr.I(0), Hi: expr.V("i'"), Step: expr.I(2)},
		expr.Singleton(expr.V("i'")),
	}
	if !Covered(s, target, pieces) {
		t.Error("strided back-edge coverage failed")
	}
}

// TestCoveredQueries pins the entailment queries Covered asks when no
// piece helps: k pieces that lie above a non-empty target.  Covered asks
// whether the target is empty once, then for each piece whether it
// starts at or below the target (subsumption), then, chaining from the
// target's start, whether the cursor has reached the target's end and
// again whether each piece starts at or below the cursor, and finally
// once more whether the cursor has reached the end: 2k+3 queries.
// Asking the target's emptiness again for every piece would make it
// 3k+3.
func TestCoveredQueries(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		var pieces []expr.StridedRange
		for j := 0; j < k; j++ {
			pieces = append(pieces, rng(int64(200+10*j), int64(205+10*j), 1))
		}
		s := solver()
		if Covered(s, rng(0, 100, 1), pieces) {
			t.Fatalf("k=%d: pieces above the target cover it", k)
		}
		if got, want := s.Queries(), 2*k+3; got != want {
			t.Errorf("k=%d: Covered asked %d queries, want %d", k, got, want)
		}
	}
}

func TestExactUnion(t *testing.T) {
	s := solver()
	if !ExactUnion(s, rng(0, 20, 1), []expr.StridedRange{rng(0, 10, 1), rng(10, 20, 1)}) {
		t.Error("exact union of adjacent halves failed")
	}
	// Candidate strictly larger than the union is rejected.
	if ExactUnion(s, rng(0, 21, 1), []expr.StridedRange{rng(0, 10, 1), rng(10, 20, 1)}) {
		t.Error("over-wide candidate accepted")
	}
	// Candidate missing a piece is rejected.
	if ExactUnion(s, rng(0, 10, 1), []expr.StridedRange{rng(0, 10, 1), rng(15, 20, 1)}) {
		t.Error("candidate not covering all pieces accepted")
	}
}

// Property (soundness): on concrete ranges, Covered == true implies the
// target's index set really is inside the union.
func TestCoveredSoundOnConcrete(t *testing.T) {
	s := solver()
	run := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 60
		mk := func() expr.StridedRange {
			lo := int64(r.Intn(n))
			hi := lo + int64(r.Intn(n-int(lo))+1)
			step := int64(1 + r.Intn(3))
			return rng(lo, hi, step)
		}
		var pieces []expr.StridedRange
		covered := [n]bool{}
		for i := 0; i < 4; i++ {
			p := mk()
			pieces = append(pieces, p)
			lo, _ := p.Lo.(expr.IntLit)
			hi, _ := p.Hi.(expr.IntLit)
			st, _ := p.Step.(expr.IntLit)
			for j := lo.Val; j < hi.Val; j += st.Val {
				covered[j] = true
			}
		}
		target := mk()
		if !Covered(s, target, pieces) {
			return true // incompleteness is allowed
		}
		lo := target.Lo.(expr.IntLit).Val
		hi := target.Hi.(expr.IntLit).Val
		st := target.Step.(expr.IntLit).Val
		for j := lo; j < hi; j += st {
			if !covered[j] {
				t.Logf("seed %d: target %v claims covered but index %d is not (pieces %v)",
					seed, target, j, pieces)
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
