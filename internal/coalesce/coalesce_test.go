package coalesce

import (
	"testing"

	"bigfoot/internal/bfj"
	"bigfoot/internal/entail"
	"bigfoot/internal/expr"
)

func fieldItem(kind bfj.AccessKind, base expr.Var, fields ...string) bfj.CheckItem {
	return bfj.CheckItem{Kind: kind, Path: expr.NewFieldPath(base, fields...)}
}

func arrItem(kind bfj.AccessKind, base expr.Var, lo, hi, step int64) bfj.CheckItem {
	return bfj.CheckItem{Kind: kind, Path: expr.ArrayPath{
		Base: base, Range: expr.StridedRange{Lo: expr.I(lo), Hi: expr.I(hi), Step: expr.I(step)}}}
}

func render(items []bfj.CheckItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Kind.String() + ":" + it.Path.String()
	}
	return out
}

func TestFieldGroupCoalescing(t *testing.T) {
	s := entail.New(nil)
	got := Coalesce(s, []bfj.CheckItem{
		fieldItem(bfj.Write, "p", "x"),
		fieldItem(bfj.Write, "p", "y"),
		fieldItem(bfj.Write, "p", "z"),
	})
	if len(got) != 1 || got[0].Path.String() != "p.x/y/z" || got[0].Kind != bfj.Write {
		t.Errorf("got %v", render(got))
	}
}

func TestWriteSubsumesReadOnSameField(t *testing.T) {
	s := entail.New(nil)
	got := Coalesce(s, []bfj.CheckItem{
		fieldItem(bfj.Read, "p", "x"),
		fieldItem(bfj.Write, "p", "x"),
		fieldItem(bfj.Read, "p", "y"),
	})
	// x: write check covers the read; y stays a read check.
	if len(got) != 2 {
		t.Fatalf("got %v", render(got))
	}
	var haveWX, haveRY bool
	for _, it := range got {
		if it.Kind == bfj.Write && it.Path.String() == "p.x" {
			haveWX = true
		}
		if it.Kind == bfj.Read && it.Path.String() == "p.y" {
			haveRY = true
		}
	}
	if !haveWX || !haveRY {
		t.Errorf("got %v", render(got))
	}
}

func TestDesignatorEquivalenceMergesAliases(t *testing.T) {
	// {q = p} ⊢ p.x and q.y share a designator class.
	s := entail.New([]expr.Expr{expr.Eq(expr.V("q"), expr.V("p"))})
	got := Coalesce(s, []bfj.CheckItem{
		fieldItem(bfj.Write, "p", "x"),
		fieldItem(bfj.Write, "q", "y"),
	})
	if len(got) != 1 {
		t.Fatalf("aliased designators should merge: %v", render(got))
	}
}

func TestDistinctDesignatorsStaySeparate(t *testing.T) {
	s := entail.New(nil)
	got := Coalesce(s, []bfj.CheckItem{
		fieldItem(bfj.Write, "p", "x"),
		fieldItem(bfj.Write, "q", "x"),
	})
	if len(got) != 2 {
		t.Errorf("unrelated objects merged: %v", render(got))
	}
}

func TestAdjacentRangesMerge(t *testing.T) {
	s := entail.New(nil)
	got := Coalesce(s, []bfj.CheckItem{
		arrItem(bfj.Write, "a", 0, 10, 1),
		arrItem(bfj.Write, "a", 10, 20, 1),
	})
	if len(got) != 1 || got[0].Path.String() != "a[0..20]" {
		t.Errorf("got %v", render(got))
	}
}

func TestSingletonsMergeToStride(t *testing.T) {
	s := entail.New(nil)
	got := Coalesce(s, []bfj.CheckItem{
		{Kind: bfj.Write, Path: expr.ArrayPath{Base: "a", Range: expr.Singleton(expr.I(0))}},
		{Kind: bfj.Write, Path: expr.ArrayPath{Base: "a", Range: expr.Singleton(expr.I(4))}},
	})
	if len(got) != 1 {
		t.Fatalf("got %v", render(got))
	}
	ap := got[0].Path.(expr.ArrayPath)
	if k, _ := ap.Range.Step.(expr.IntLit); k.Val != 4 {
		t.Errorf("expected stride-4 merge, got %v", ap)
	}
}

func TestInterleavedColumnsMergeToContiguous(t *testing.T) {
	s := entail.New(nil)
	got := Coalesce(s, []bfj.CheckItem{
		arrItem(bfj.Write, "a", 0, 100, 2),
		arrItem(bfj.Write, "a", 1, 100, 2),
	})
	if len(got) != 1 {
		t.Fatalf("got %v", render(got))
	}
	ap := got[0].Path.(expr.ArrayPath)
	if k, _ := ap.Range.Step.(expr.IntLit); k.Val != 1 {
		t.Errorf("expected contiguous merge, got %v", ap)
	}
}

func TestNonAdjacentRangesKept(t *testing.T) {
	s := entail.New(nil)
	got := Coalesce(s, []bfj.CheckItem{
		arrItem(bfj.Write, "a", 0, 10, 1),
		arrItem(bfj.Write, "a", 15, 20, 1),
	})
	if len(got) != 2 {
		t.Errorf("gap should prevent merging: %v", render(got))
	}
}

func TestReadRangeCoveredByWriteDropped(t *testing.T) {
	s := entail.New(nil)
	got := Coalesce(s, []bfj.CheckItem{
		arrItem(bfj.Write, "a", 0, 100, 1),
		arrItem(bfj.Read, "a", 10, 20, 1),
	})
	if len(got) != 1 || got[0].Kind != bfj.Write {
		t.Errorf("covered read range should be dropped: %v", render(got))
	}
}

func TestEmptyRangesDropped(t *testing.T) {
	s := entail.New(nil)
	got := Coalesce(s, []bfj.CheckItem{
		arrItem(bfj.Write, "a", 5, 5, 1),
	})
	if len(got) != 0 {
		t.Errorf("empty range should vanish: %v", render(got))
	}
}

func TestSymbolicAdjacency(t *testing.T) {
	// With 0 <= mid <= n known, [0,mid) and [mid,n) merge to [0,n).
	// (Without those bounds the union need not equal [0,n), and the
	// coalescer correctly keeps the pieces.)
	s := entail.New([]expr.Expr{
		expr.Ge(expr.V("mid"), expr.I(0)),
		expr.Le(expr.V("mid"), expr.V("n")),
	})
	mk := func(lo, hi expr.Expr) bfj.CheckItem {
		return bfj.CheckItem{Kind: bfj.Write, Path: expr.ArrayPath{
			Base: "a", Range: expr.StridedRange{Lo: lo, Hi: hi, Step: expr.I(1)}}}
	}
	got := Coalesce(s, []bfj.CheckItem{
		mk(expr.I(0), expr.V("mid")),
		mk(expr.V("mid"), expr.V("n")),
	})
	if len(got) != 1 {
		t.Fatalf("symbolic adjacency failed: %v", render(got))
	}
	if got[0].Path.String() != "a[0..n]" {
		t.Errorf("merged to %v", got[0].Path)
	}
}

func TestMixedFieldsAndArrays(t *testing.T) {
	s := entail.New(nil)
	got := Coalesce(s, []bfj.CheckItem{
		fieldItem(bfj.Write, "p", "x"),
		arrItem(bfj.Read, "a", 0, 10, 1),
		fieldItem(bfj.Write, "p", "y"),
	})
	if len(got) != 2 {
		t.Errorf("got %v", render(got))
	}
}

// TestPositionsKeptPerKind: a merged item cites the sites of its own
// kind only, so a write check that also covers reads (dropped as
// subsumed) still reports a write site first.
func TestPositionsKeptPerKind(t *testing.T) {
	at := func(it bfj.CheckItem, line int) bfj.CheckItem {
		it.Positions = []bfj.Pos{{Line: line, Col: 5}}
		return it
	}
	s := entail.New(nil)
	got := Coalesce(s, []bfj.CheckItem{
		at(fieldItem(bfj.Read, "p", "x"), 7),
		at(fieldItem(bfj.Write, "p", "x"), 8),
		at(fieldItem(bfj.Read, "p", "y"), 9),
		at(arrItem(bfj.Read, "a", 0, 1, 1), 10),
		at(arrItem(bfj.Write, "a", 1, 2, 1), 11),
		at(arrItem(bfj.Read, "a", 2, 3, 1), 12),
	})
	want := map[string]string{
		"write:p.x": "8:5", "read:p.y": "7:5 9:5",
		"write:a[1..2]": "11:5", "read:a[0..1]": "10:5 12:5", "read:a[2..3]": "10:5 12:5",
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", render(got))
	}
	for _, it := range got {
		key := it.Kind.String() + ":" + it.Path.String()
		if ps := bfj.FormatPositions(it.Positions); ps != want[key] {
			t.Errorf("%s cites %q, want %q", key, ps, want[key])
		}
	}
}
