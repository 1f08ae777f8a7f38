// Package coalesce implements BigFoot's post-analysis path coalescing
// (§4): within each check(C) statement, paths are grouped into
// equivalence classes by designator (H ⊢ d1 = d2) and merged — field
// paths into coalesced groups d.f1/f2/…/fn, and array paths into single
// strided ranges capturing exactly the union of the originals.
//
// As in the paper, range merging is a bounded combinatorial search over
// the bounds and step sizes of the original ranges, with each candidate
// verified exactly (both inclusions) by the ranges package; when no
// merged range exists, the original paths are kept.
package coalesce

import (
	"sort"

	"bigfoot/internal/bfj"
	"bigfoot/internal/entail"
	"bigfoot/internal/expr"
	"bigfoot/internal/ranges"
)

// Coalesce merges the items of one check statement under the check's
// pre-history solver.  It also drops read items subsumed by write items
// on the same designator (a write check covers read accesses).
func Coalesce(s *entail.Solver, items []bfj.CheckItem) []bfj.CheckItem {
	classes := designatorClasses(s, items)

	var out []bfj.CheckItem
	for _, cls := range classes {
		out = append(out, coalesceClass(s, cls)...)
	}
	return out
}

// designatorClasses partitions items by provably-equal designators,
// keeping fields and arrays separate.
func designatorClasses(s *entail.Solver, items []bfj.CheckItem) [][]bfj.CheckItem {
	type class struct {
		rep     expr.Var
		isArray bool
		items   []bfj.CheckItem
	}
	var classes []*class
	for _, it := range items {
		d := it.Path.Designator()
		_, isArr := it.Path.(expr.ArrayPath)
		placed := false
		for _, c := range classes {
			if c.isArray == isArr && (c.rep == d || s.ProveEq(expr.V(c.rep), expr.V(d))) {
				c.items = append(c.items, it)
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, &class{rep: d, isArray: isArr, items: []bfj.CheckItem{it}})
		}
	}
	out := make([][]bfj.CheckItem, len(classes))
	for i, c := range classes {
		out[i] = c.items
	}
	return out
}

// coalesceClass merges the items of one designator class.
func coalesceClass(s *entail.Solver, items []bfj.CheckItem) []bfj.CheckItem {
	if _, isArr := items[0].Path.(expr.ArrayPath); isArr {
		return coalesceArrays(s, items)
	}
	return coalesceFields(items)
}

// classPositions is the sorted union of the position sets of the
// class's constituents of the given kind.  Merged items attribute
// positions at class granularity, since range merging loses the
// item-level attribution, but per kind: a write item cites the class's
// write sites and a read item its read sites.  The detector reports a
// check's earliest position as its access site, so a write check that
// also covers reads must not cite a read.
func classPositions(items []bfj.CheckItem, kind bfj.AccessKind) []bfj.Pos {
	var sets [][]bfj.Pos
	for _, it := range items {
		if it.Kind == kind {
			sets = append(sets, it.Positions)
		}
	}
	return bfj.UnionPos(sets...)
}

// coalesceFields merges field paths per kind into one coalesced group,
// dropping read fields already covered by the write group.
func coalesceFields(items []bfj.CheckItem) []bfj.CheckItem {
	base := items[0].Path.Designator()
	kindFields := map[bfj.AccessKind]map[string]bool{}
	for _, it := range items {
		fp := it.Path.(expr.FieldPath)
		m := kindFields[it.Kind]
		if m == nil {
			m = map[string]bool{}
			kindFields[it.Kind] = m
		}
		for _, f := range fp.Fields {
			m[f] = true
		}
	}
	var out []bfj.CheckItem
	writes := kindFields[bfj.Write]
	if len(writes) > 0 {
		out = append(out, bfj.CheckItem{Kind: bfj.Write, Path: expr.NewFieldPath(base, keys(writes)...), Positions: classPositions(items, bfj.Write)})
	}
	var readOnly []string
	for f := range kindFields[bfj.Read] {
		if !writes[f] {
			readOnly = append(readOnly, f)
		}
	}
	if len(readOnly) > 0 {
		out = append(out, bfj.CheckItem{Kind: bfj.Read, Path: expr.NewFieldPath(base, readOnly...), Positions: classPositions(items, bfj.Read)})
	}
	return out
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// coalesceArrays merges array ranges per kind and drops read ranges
// covered by the (merged) write ranges.
func coalesceArrays(s *entail.Solver, items []bfj.CheckItem) []bfj.CheckItem {
	base := items[0].Path.Designator()
	byKind := map[bfj.AccessKind][]expr.StridedRange{}
	for _, it := range items {
		ap := it.Path.(expr.ArrayPath)
		if ranges.Empty(s, ap.Range) {
			continue
		}
		byKind[it.Kind] = append(byKind[it.Kind], ap.Range)
	}
	writeRanges := mergeRanges(s, byKind[bfj.Write])
	var readRanges []expr.StridedRange
	for _, r := range mergeRanges(s, byKind[bfj.Read]) {
		if !ranges.Covered(s, r, writeRanges) {
			readRanges = append(readRanges, r)
		}
	}
	var out []bfj.CheckItem
	wposs, rposs := classPositions(items, bfj.Write), classPositions(items, bfj.Read)
	for _, r := range writeRanges {
		out = append(out, bfj.CheckItem{Kind: bfj.Write, Path: expr.ArrayPath{Base: base, Range: r}, Positions: wposs})
	}
	for _, r := range readRanges {
		out = append(out, bfj.CheckItem{Kind: bfj.Read, Path: expr.ArrayPath{Base: base, Range: r}, Positions: rposs})
	}
	return out
}

// mergeRanges repeatedly merges pairs of ranges whose exact union is a
// single strided range, until no pair merges.
func mergeRanges(s *entail.Solver, rs []expr.StridedRange) []expr.StridedRange {
	rs = append([]expr.StridedRange(nil), rs...)
	for changed := true; changed; {
		changed = false
	outer:
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				if m, ok := mergePair(s, rs[i], rs[j]); ok {
					rs[i] = m
					rs = append(rs[:j], rs[j+1:]...)
					changed = true
					break outer
				}
			}
		}
	}
	return rs
}

// mergePair searches candidate (lo, hi, step) combinations drawn from
// the two ranges' bounds and steps; a candidate wins if it denotes
// exactly r1 ∪ r2.
func mergePair(s *entail.Solver, r1, r2 expr.StridedRange) (expr.StridedRange, bool) {
	if ranges.Subsumes(s, r1, r2) {
		return r1, true
	}
	if ranges.Subsumes(s, r2, r1) {
		return r2, true
	}
	pieces := []expr.StridedRange{r1, r2}

	var stepCands []expr.Expr
	addStep := func(e expr.Expr) {
		for _, c := range stepCands {
			if expr.EqualSyntax(c, e) {
				return
			}
		}
		stepCands = append(stepCands, e)
	}
	addStep(expr.I(1))
	addStep(r1.Step)
	addStep(r2.Step)
	// Two singletons spaced d apart form a stride-d range.
	e1, ok1 := r1.IsSingleton()
	e2, ok2 := r2.IsSingleton()
	if ok1 && ok2 {
		if d, ok := s.ConstDiff(e2, e1); ok && d != 0 {
			if d < 0 {
				d = -d
			}
			addStep(expr.I(d))
		}
	}

	loCands := []expr.Expr{r1.Lo, r2.Lo}
	hiCands := []expr.Expr{r1.Hi, r2.Hi}
	for _, st := range stepCands {
		for _, lo := range loCands {
			for _, hi := range hiCands {
				cand := expr.StridedRange{Lo: lo, Hi: hi, Step: st}
				if ranges.ExactUnion(s, cand, pieces) {
					return cand, true
				}
			}
		}
	}
	return expr.StridedRange{}, false
}
