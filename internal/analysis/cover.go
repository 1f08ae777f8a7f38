package analysis

import (
	"bigfoot/internal/bfj"
	"bigfoot/internal/entail"
	"bigfoot/internal/expr"
	"bigfoot/internal/ranges"
)

// This file implements the semantic entailment judgments over contexts:
//
//	H ⊢ p✁   (access entailment, used when merging histories)
//	H ⊢ p✓   (covering-check entailment)
//	H•A ⊢ p✸ (anticipated entailment)
//
// and the Checks functions of Fig. 7. Array paths require range
// reasoning: a target strided range is entailed when it is covered by
// the union of the ranges of same-designator facts, decided with the
// entailment solver (e.g. {a[0..i']✁, a[i']✁, i=i'+1} ⊢ a[0..i]✁).

// sameDesignator reports H ⊢ d1 = d2 for two designator variables.
func sameDesignator(s *entail.Solver, d1, d2 expr.Var) bool {
	return d1 == d2 || s.ProveEq(expr.V(d1), expr.V(d2))
}

// fieldsCovered reports whether every field of target appears in the
// union of same-designator facts' field sets.
func fieldsCovered(target []string, have map[string]bool) bool {
	for _, f := range target {
		if !have[f] {
			return false
		}
	}
	return true
}

// pathEntailed is the generic core: does the set of (kind, path) pairs
// entail an access/check/anticipation of (kind, path)?  covers decides
// the kind relation (write subsumes read).
func pathEntailed(s *entail.Solver, kind bfj.AccessKind, path expr.Path, facts []pathFact) bool {
	switch p := path.(type) {
	case expr.FieldPath:
		have := map[string]bool{}
		for _, f := range facts {
			fp, ok := f.Path.(expr.FieldPath)
			if !ok || !f.Kind.Covers(kind) {
				continue
			}
			if !sameDesignator(s, fp.Base, p.Base) {
				continue
			}
			for _, name := range fp.Fields {
				have[name] = true
			}
		}
		return fieldsCovered(p.Fields, have)
	case expr.ArrayPath:
		var rs []expr.StridedRange
		for _, f := range facts {
			ap, ok := f.Path.(expr.ArrayPath)
			if !ok || !f.Kind.Covers(kind) {
				continue
			}
			if !sameDesignator(s, ap.Base, p.Base) {
				continue
			}
			rs = append(rs, ap.Range)
		}
		return ranges.Covered(s, p.Range, rs)
	}
	return false
}

type pathFact struct {
	Kind bfj.AccessKind
	Path expr.Path
}

func accessFacts(h History) []pathFact {
	var out []pathFact
	for _, kf := range h.facts {
		if a, ok := kf.f.(AccessFact); ok {
			out = append(out, pathFact{a.Kind, a.Path})
		}
	}
	return out
}

func checkFacts(h History) []pathFact {
	var out []pathFact
	for _, kf := range h.facts {
		if c, ok := kf.f.(CheckFact); ok {
			out = append(out, pathFact{c.Kind, c.Path})
		}
	}
	return out
}

func antFacts(a AntSet) []pathFact {
	out := make([]pathFact, len(a.facts))
	for i, kf := range a.facts {
		out[i] = pathFact{kf.f.Kind, kf.f.Path}
	}
	return out
}

// EntailsAccess decides H ⊢ p✁ (kind-aware: a write access fact entails
// the read-access obligation on the same path).
func EntailsAccess(h History, kind bfj.AccessKind, path expr.Path) bool {
	return pathEntailed(h.Solver(), kind, path, accessFacts(h))
}

// EntailsCheck decides H ⊢ p✓: a past check covering (kind, path).
func EntailsCheck(h History, kind bfj.AccessKind, path expr.Path) bool {
	return pathEntailed(h.Solver(), kind, path, checkFacts(h))
}

// EntailsAnt decides H•A ⊢ p✸.
func EntailsAnt(h History, a AntSet, kind bfj.AccessKind, path expr.Path) bool {
	return pathEntailed(h.Solver(), kind, path, antFacts(a))
}

// EntailsBool decides H ⊢ be.
func EntailsBool(h History, e expr.Expr) bool { return h.Solver().Entails(e) }

// EntailsFact decides H ⊢ h for an arbitrary history fact.
func EntailsFact(h History, f Fact) bool { return entailsFact(h, f.Key(), f) }

// entailsFact is EntailsFact for a fact whose key is known.
func entailsFact(h History, key string, f Fact) bool {
	if h.hasKey(key) {
		return true
	}
	switch x := f.(type) {
	case BoolFact:
		return EntailsBool(h, x.E)
	case AccessFact:
		return EntailsAccess(h, x.Kind, x.Path)
	case CheckFact:
		return EntailsCheck(h, x.Kind, x.Path)
	}
	return false
}

// ---------------------------------------------------------------------------
// Meets
// ---------------------------------------------------------------------------

// MeetHistory computes H1 ⊓ H2 = {h ∈ H1 ∪ H2 : H1 ⊢ h, H2 ⊢ h}.
// The candidates are the union of the two key-sorted fact lists, taking
// h1's fact where both have the key.
func MeetHistory(h1, h2 History) History {
	var out []Fact
	unionKeys(h1.facts, h2.facts, func(kf keyed[Fact]) {
		if entailsFact(h1, kf.key, kf.f) && entailsFact(h2, kf.key, kf.f) {
			out = append(out, kf.f)
		}
	})
	return h1.withFacts(out...)
}

// MeetAnt computes H1•A1 ⊓ H2•A2 = {a ∈ A1 ∪ A2 : H1•A1 ⊢ a, H2•A2 ⊢ a}.
// As in MeetHistory, the candidates are the key-sorted union, taking
// A1's fact where both have the key.
func MeetAnt(h1 History, a1 AntSet, h2 History, a2 AntSet) AntSet {
	var out AntSet
	unionKeys(a1.facts, a2.facts, func(kf keyed[AntFact]) {
		if EntailsAnt(h1, a1, kf.f.Kind, kf.f.Path) && EntailsAnt(h2, a2, kf.f.Kind, kf.f.Path) {
			out.facts = append(out.facts, kf)
		}
	})
	return out
}

// ---------------------------------------------------------------------------
// The Checks functions of Fig. 7
// ---------------------------------------------------------------------------

// Checks computes Checks(H, A): the accesses p✁ ∈ H with no covering
// past check in H and no covering anticipated access in H•A — the
// release/acquire variant where every obligation must be discharged.
func Checks(h History, a AntSet) []bfj.CheckItem {
	var out []bfj.CheckItem
	for _, kf := range h.facts {
		acc, ok := kf.f.(AccessFact)
		if !ok {
			continue
		}
		if EntailsCheck(h, acc.Kind, acc.Path) {
			continue // already covered by a past check
		}
		if EntailsAnt(h, a, acc.Kind, acc.Path) {
			continue // a later anticipated access will cover it
		}
		out = append(out, bfj.CheckItem{Kind: acc.Kind, Path: acc.Path, Positions: acc.Positions})
	}
	return out
}

// ChecksVs computes Checks(H, H', A): accesses in H whose obligation is
// lost when H is approximated by H' and that are neither checked in H
// nor anticipated in H•A (the [If]/[Loop]/[Call] variant).  When H'
// preserves an access (e.g. the merged history still entails it), no
// check is required.
func ChecksVs(h, hPrime History, a AntSet) []bfj.CheckItem {
	var out []bfj.CheckItem
	primeFacts := accessFacts(hPrime)
	for _, kf := range h.facts {
		acc, ok := kf.f.(AccessFact)
		if !ok {
			continue
		}
		// Preservation in H' is judged with H's (richer) arithmetic: the
		// access facts must come from H', but relations like i = i'+1
		// that connect them to the obligation live in H.
		if pathEntailed(h.Solver(), acc.Kind, acc.Path, primeFacts) {
			continue // obligation survives the merge
		}
		if EntailsCheck(h, acc.Kind, acc.Path) {
			continue // already covered by a past check
		}
		if EntailsAnt(h, a, acc.Kind, acc.Path) {
			continue // a later anticipated access will cover it
		}
		out = append(out, bfj.CheckItem{Kind: acc.Kind, Path: acc.Path, Positions: acc.Positions})
	}
	return out
}

// checkFactsOf converts placed check items to history facts (√C).
func checkFactsOf(items []bfj.CheckItem) []Fact {
	out := make([]Fact, len(items))
	for i, it := range items {
		out[i] = CheckFact{Kind: it.Kind, Path: it.Path}
	}
	return out
}
