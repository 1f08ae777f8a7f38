// Package ranges implements symbolic reasoning about strided index
// ranges under an entailment solver: emptiness, subsumption, and
// coverage of a target range by a union of ranges.  It is shared by the
// check-placement analysis (history/anticipated entailment over array
// paths) and the post-analysis path coalescer.
package ranges

import (
	"bigfoot/internal/entail"
	"bigfoot/internal/expr"
)

// Empty reports whether the range is provably empty under s.
func Empty(s *entail.Solver, r expr.StridedRange) bool {
	return s.ProveLe(r.Hi, r.Lo)
}

// StepConst returns the constant value of a step expression.
func StepConst(e expr.Expr) (int64, bool) {
	c, ok := expr.Linearize(e).IsConst()
	return c, ok
}

// Subsumes reports whether super ⊇ target under s.
func Subsumes(s *entail.Solver, super, target expr.StridedRange) bool {
	return Empty(s, target) || subsumesNonEmpty(s, super, target)
}

// subsumesNonEmpty is Subsumes for a target the caller has already
// failed to prove empty: it leaves out the emptiness query.
func subsumesNonEmpty(s *entail.Solver, super, target expr.StridedRange) bool {
	if !s.ProveLe(super.Lo, target.Lo) || !s.ProveLe(target.Hi, super.Hi) {
		return false
	}
	superStep, superConst := StepConst(super.Step)
	targetStep, targetConst := StepConst(target.Step)
	if superConst && superStep == 1 {
		return true // contiguous superset covers any stride inside bounds
	}
	if !superConst || !targetConst {
		// Symbolic steps: accept only structurally equal steps with
		// provably equal starting points.
		return s.ProveEq(super.Step, target.Step) && s.ProveEq(super.Lo, target.Lo)
	}
	if superStep <= 0 {
		return false
	}
	// A singleton target needs only grid membership, regardless of its
	// nominal step.
	if _, isSingle := target.IsSingleton(); !isSingle && targetStep%superStep != 0 {
		return false
	}
	return alignedOnGrid(s, target.Lo, super.Lo, superStep)
}

// alignedOnGrid reports whether lo sits on the grid {base + i*k}: either
// a provable constant difference divisible by k, or a congruence proof
// (lo - base) % k == 0.
func alignedOnGrid(s *entail.Solver, lo, base expr.Expr, k int64) bool {
	if k == 1 {
		return true
	}
	if d, ok := s.ConstDiff(lo, base); ok {
		return mod(d, k) == 0
	}
	return s.Entails(expr.Eq(expr.Bin(expr.OpMod, expr.Sub(lo, base), expr.I(k)), expr.I(0)))
}

// Covered reports whether target is covered by the union of the given
// ranges under s.  Handles single-range subsumption, greedy grid
// chaining (contiguous and same-stride pieces, singletons), and
// full-residue interleavings of equal strides.
func Covered(s *entail.Solver, target expr.StridedRange, pieces []expr.StridedRange) bool {
	if Empty(s, target) {
		return true
	}
	for _, r := range pieces {
		if subsumesNonEmpty(s, r, target) {
			return true
		}
	}
	k, kConst := StepConst(target.Step)
	if !kConst || k < 1 {
		return false
	}
	cursor := target.Lo
	used := make([]bool, len(pieces))
	// Invariant: every target grid point provably below cursor is
	// covered.  Each advance consumes a piece (reusing a piece never
	// extends the prefix further), so the loop ends.  Whether the cursor
	// has reached the end is asked only after it moves: at target.Lo
	// that is the emptiness query answered above.
	for advance(s, &cursor, k, target, pieces, used) {
		if s.ProveLe(target.Hi, cursor) {
			return true
		}
	}
	return k == 1 && residueCover(s, target, pieces)
}

func advance(s *entail.Solver, cursor *expr.Expr, k int64, target expr.StridedRange, pieces []expr.StridedRange, used []bool) bool {
	for i, r := range pieces {
		if used[i] {
			continue
		}
		st, ok := StepConst(r.Step)
		if !ok || st < 1 {
			continue
		}
		// Singleton-style advance: the piece's single grid point hits
		// the cursor exactly; cursor jumps one grid step.
		if single, isSingle := r.IsSingleton(); isSingle {
			if s.ProveEq(single, *cursor) {
				*cursor = expr.Add(*cursor, expr.I(k))
				used[i] = true
				return true
			}
			continue
		}
		// A non-singleton piece with Lo <= cursor <= Hi covers every
		// grid point in [cursor, Hi), including the degenerate case of
		// an empty piece with Hi == cursor (which claims nothing); the
		// <= comparison is what lets the i'=0 first-iteration case
		// through, e.g. a[0..i'] ∪ {a[i']} ⊇ a[0..i'+1].
		if !s.ProveLe(r.Lo, *cursor) || !s.ProveLe(*cursor, r.Hi) {
			continue
		}
		switch {
		case st == 1:
			// Contiguous piece covers all integers (hence all grid
			// points) below Hi.
			*cursor = r.Hi
			used[i] = true
			return true
		case st == k:
			// Same-stride piece must sit on the target's grid.
			if alignedOnGrid(s, r.Lo, target.Lo, k) {
				*cursor = r.Hi
				used[i] = true
				return true
			}
		}
	}
	return false
}

func mod(a, k int64) int64 {
	m := a % k
	if m < 0 {
		m += k
	}
	return m
}

// residueCover handles {a[0..n:2], a[1..n:2]} ⊇ a[0..n]-style unions:
// pieces with a common constant stride k whose offsets hit every residue
// class of the target's step-1 grid.
func residueCover(s *entail.Solver, target expr.StridedRange, pieces []expr.StridedRange) bool {
	for _, r0 := range pieces {
		k, ok := StepConst(r0.Step)
		if !ok || k < 2 || k > 8 {
			continue
		}
		residues := make([]bool, k)
		found := int64(0)
		for _, r := range pieces {
			kr, ok := StepConst(r.Step)
			if !ok || kr != k {
				continue
			}
			if !s.ProveLe(r.Lo, expr.Add(target.Lo, expr.I(k-1))) || !s.ProveLe(target.Hi, r.Hi) {
				continue
			}
			d, ok := s.ConstDiff(r.Lo, target.Lo)
			if !ok || d < 0 || d >= k {
				continue
			}
			if !residues[d] {
				residues[d] = true
				found++
			}
		}
		if found == k {
			return true
		}
	}
	return false
}

// ExactUnion reports whether candidate denotes exactly the union of the
// pieces: candidate ⊆ ∪pieces and each piece ⊆ candidate.
func ExactUnion(s *entail.Solver, candidate expr.StridedRange, pieces []expr.StridedRange) bool {
	for _, r := range pieces {
		if !Subsumes(s, candidate, r) {
			return false
		}
	}
	return Covered(s, candidate, pieces)
}
