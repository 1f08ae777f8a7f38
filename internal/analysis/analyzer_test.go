package analysis

import (
	"strings"
	"testing"

	"bigfoot/internal/bfj"
	"bigfoot/internal/expr"
)

// instrumentThread analyzes the first thread body of a program and
// returns the instrumented block's text.
func instrumentThread(t *testing.T, src string) string {
	t.Helper()
	prog, err := bfj.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a := New(prog, Options{})
	out := a.AnalyzeBody(prog.Threads[0], nil)
	return bfj.FormatBlock(out, 0)
}

func countChecks(text string) int {
	return strings.Count(text, "check ")
}

// TestFig3SingleCheckCoversThreeAccesses reproduces the Fig. 3 example:
// three reads of b.f across two critical sections need exactly one
// check, placed before the second acquire.
func TestFig3SingleCheckCoversThreeAccesses(t *testing.T) {
	src := `
class C { field f; }
setup { b = new C; lock = new C; }
thread {
  acquire lock;
  x = b.f;
  release lock;
  y = b.f;
  acquire lock;
  z = b.f;
  release lock;
}`
	got := instrumentThread(t, src)
	if n := countChecks(got); n != 1 {
		t.Fatalf("want exactly 1 check, got %d:\n%s", n, got)
	}
	lines := strings.Split(strings.TrimSpace(got), "\n")
	// The single check must appear immediately before the second acquire.
	checkIdx, acqCount := -1, 0
	secondAcq := -1
	for i, ln := range lines {
		if strings.HasPrefix(strings.TrimSpace(ln), "check ") {
			checkIdx = i
		}
		if strings.HasPrefix(strings.TrimSpace(ln), "acquire") {
			acqCount++
			if acqCount == 2 {
				secondAcq = i
			}
		}
	}
	if checkIdx != secondAcq-1 {
		t.Errorf("check at line %d, second acquire at line %d:\n%s", checkIdx, secondAcq, got)
	}
	if !strings.Contains(got, "check read(b.f)") {
		t.Errorf("expected read check on b.f:\n%s", got)
	}
}

// TestFig6aIfMerge reproduces Fig. 6(a): the then-branch must check b.g
// before the merge, while the else-branch's b.f access is anticipated by
// the post-if access and needs no branch check.
func TestFig6aIfMerge(t *testing.T) {
	src := `
class C { field f, g; }
setup { b = new C; i = 0; }
thread {
  if (i < 0) {
    y = b.g;
  } else {
    x = b.f;
  }
  z = b.f;
}`
	got := instrumentThread(t, src)
	if n := countChecks(got); n != 2 {
		t.Fatalf("want 2 checks (branch b.g + final b.f), got %d:\n%s", n, got)
	}
	// b.g checked inside the then branch.
	if !strings.Contains(got, "check read(b.g)") {
		t.Errorf("missing b.g check:\n%s", got)
	}
	// No check mentioning b.f inside the else branch (it is anticipated).
	elseStart := strings.Index(got, "} else {")
	elseEnd := strings.Index(got[elseStart:], "}")
	elseBody := got[elseStart : elseStart+elseEnd]
	if strings.Contains(elseBody, "check") {
		t.Errorf("else branch should have no checks:\n%s", got)
	}
	// Final check covers b.f.
	if !strings.Contains(got, "check read(b.f)") {
		t.Errorf("missing final b.f check:\n%s", got)
	}
}

// TestFig6bLoopChecksMoveOut reproduces Fig. 6(b): all checks move out
// of the loop and coalesce to a[0..i] and b.f.
func TestFig6bLoopChecksMoveOut(t *testing.T) {
	src := `
class C { field f; }
setup { b = new C; a = newarray 100; n = 100; }
thread {
  i = 0;
  while (i < n) {
    t = b.f;
    a[i] = t;
    i = i + 1;
  }
}`
	got := instrumentThread(t, src)
	// No check inside the loop.
	loopStart := strings.Index(got, "loop {")
	loopEnd := strings.LastIndex(got, "}")
	_ = loopEnd
	inner := got[loopStart:strings.LastIndex(got, "check")]
	if strings.Contains(inner, "check") {
		t.Errorf("no checks should be inside the loop:\n%s", got)
	}
	if n := countChecks(got); n != 1 {
		t.Fatalf("want a single post-loop check, got %d:\n%s", n, got)
	}
	// The post-loop check covers the full array range and b.f.
	if !strings.Contains(got, "a[0..") {
		t.Errorf("array range check missing:\n%s", got)
	}
	if !strings.Contains(got, "read(b.f)") {
		t.Errorf("b.f check missing:\n%s", got)
	}
	if !strings.Contains(got, "write(a[0..") {
		t.Errorf("array check should be a write check:\n%s", got)
	}
}

// TestFig1MoveCoalescesFields reproduces the Fig. 1 move method: the
// three read-modify-write pairs reduce to a single coalesced write
// check on this.x/y/z.
func TestFig1MoveCoalescesFields(t *testing.T) {
	src := `
class Point {
  field x, y, z;
  method move(dx, dy, dz) {
    tmp = this.x;
    this.x = tmp + dx;
    tmp = this.y;
    this.y = tmp + dy;
    tmp = this.z;
    this.z = tmp + dz;
  }
}
setup { p = new Point; }
thread { p.move(1, 1, 1); }`
	prog := bfj.MustParse(src)
	a := New(prog, Options{})
	m := prog.LookupMethod("Point", "move")
	out := a.AnalyzeBody(m.Body, m.Params)
	text := bfj.FormatBlock(out, 0)
	if n := countChecks(text); n != 1 {
		t.Fatalf("want 1 coalesced check, got %d:\n%s", n, text)
	}
	if !strings.Contains(text, "check write(this.x/y/z);") {
		t.Errorf("want coalesced write(this.x/y/z):\n%s", text)
	}
}

// TestFig1MovePtsArrayCheckAfterLoop reproduces Fig. 1 movePts: the
// per-iteration array read checks coalesce into one post-loop
// CheckRead(a[lo..hi]).
func TestFig1MovePtsArrayCheckAfterLoop(t *testing.T) {
	src := `
class Point {
  field x, y, z;
  method move(dx, dy, dz) {
    tmp = this.x;
    this.x = tmp + dx;
    tmp = this.y;
    this.y = tmp + dy;
    tmp = this.z;
    this.z = tmp + dz;
  }
}
class Driver {
  method movePts(a, lo, hi) {
    for (i = lo; i < hi; i = i + 1) {
      p = a[i];
      p.move(1, 1, 1);
    }
  }
}
setup { d = new Driver; }
thread { }`
	prog := bfj.MustParse(src)
	a := New(prog, Options{})
	m := prog.LookupMethod("Driver", "movePts")
	out := a.AnalyzeBody(m.Body, m.Params)
	text := bfj.FormatBlock(out, 0)
	if n := countChecks(text); n != 1 {
		t.Fatalf("want 1 post-loop check, got %d:\n%s", n, text)
	}
	if !strings.Contains(text, "check read(a[lo..") {
		t.Errorf("want post-loop read check on a[lo..hi]:\n%s", text)
	}
	// And the check is after the loop body (appears after the closing of
	// the loop).
	loopClose := strings.LastIndex(text, "}")
	checkPos := strings.LastIndex(text, "check read(a[lo..")
	if checkPos < strings.Index(text, "loop {") || checkPos < loopClose-len(text) {
		t.Errorf("check not after loop:\n%s", text)
	}
}

// TestRedundantReadBeforeWriteEliminated: a read followed by a write of
// the same location in the same span needs only the write check.
func TestRedundantReadBeforeWriteEliminated(t *testing.T) {
	src := `
class C { field f; }
setup { b = new C; }
thread {
  t = b.f;
  b.f = t + 1;
}`
	got := instrumentThread(t, src)
	if n := countChecks(got); n != 1 {
		t.Fatalf("want 1 check, got %d:\n%s", n, got)
	}
	if !strings.Contains(got, "check write(b.f)") {
		t.Errorf("want single write check:\n%s", got)
	}
	if strings.Contains(got, "read(b.f)") {
		t.Errorf("read check should be subsumed by the write check:\n%s", got)
	}
}

// TestVolatileActsAsSync: checks cannot be deferred across volatile
// accesses.
func TestVolatileActsAsSync(t *testing.T) {
	src := `
class C { field data; volatile field flag; }
setup { c = new C; }
thread {
  c.data = 1;
  c.flag = 1;
  t = c.data;
}`
	got := instrumentThread(t, src)
	// The write to data must be checked before the volatile write
	// (release-like); the read after gets its own final check.
	lines := strings.Split(got, "\n")
	volIdx, firstCheck := -1, -1
	for i, ln := range lines {
		s := strings.TrimSpace(ln)
		if strings.HasPrefix(s, "c.flag") && volIdx == -1 {
			volIdx = i
		}
		if strings.HasPrefix(s, "check") && firstCheck == -1 {
			firstCheck = i
		}
	}
	if firstCheck == -1 || firstCheck > volIdx {
		t.Errorf("write check must precede the volatile write:\n%s", got)
	}
	if n := countChecks(got); n != 2 {
		t.Errorf("want 2 checks (before volatile, final), got %d:\n%s", n, got)
	}
}

// TestStridedLoopCoalesces: a stride-2 loop produces a single strided
// range check.
func TestStridedLoopCoalesces(t *testing.T) {
	src := `
setup { a = newarray 100; n = 100; }
thread {
  i = 0;
  while (i < n) {
    a[i] = 7;
    i = i + 2;
  }
}`
	got := instrumentThread(t, src)
	if n := countChecks(got); n != 1 {
		t.Fatalf("want 1 check, got %d:\n%s", n, got)
	}
	if !strings.Contains(got, "write(a[0..") || !strings.Contains(got, ":2]") {
		t.Errorf("want strided write check a[0..i:2]:\n%s", got)
	}
}

// TestConditionalAccessNotCoalesced mirrors the §1 predicate() example:
// accesses guarded by an unknown predicate cannot be statically
// coalesced out of the loop; per-iteration checks remain inside.
func TestConditionalAccessNotCoalesced(t *testing.T) {
	src := `
class C { field p; }
setup { a = newarray 100; n = 100; c = new C; }
thread {
  i = 0;
  while (i < n) {
    t = c.p;
    if (t > 0) {
      a[i] = 1;
    }
    i = i + 1;
  }
}`
	got := instrumentThread(t, src)
	// The a[i] write check must stay inside the if (it is not performed
	// on all paths), while c.p can still be deferred past the loop.
	ifStart := strings.Index(got, "if (")
	ifEnd := strings.Index(got[ifStart:], "}")
	ifBody := got[ifStart : ifStart+ifEnd]
	if !strings.Contains(ifBody, "check write(a[i") {
		t.Errorf("conditional array write should be checked in-branch:\n%s", got)
	}
}

// TestRenameInsertion verifies pass 0 freshens reassignments.
func TestRenameInsertion(t *testing.T) {
	src := `
setup { }
thread {
  i = 0;
  i = i + 1;
}`
	prog := bfj.MustParse(src)
	renamed := insertRenames(prog.Threads[0], nil)
	text := bfj.FormatBlock(renamed, 0)
	if !strings.Contains(text, "i' <- i;") {
		t.Errorf("missing rename:\n%s", text)
	}
	if !strings.Contains(text, "i = (i' + 1);") {
		t.Errorf("RHS not rewritten to renamed copy:\n%s", text)
	}
}

// TestContextsFig3 checks the intermediate analysis contexts of Fig. 3:
// after the first release the access fact is dropped but the alias fact
// remains; before the second acquire the access is anticipated...
func TestContextsFig3(t *testing.T) {
	src := `
class C { field f; }
setup { b = new C; lock = new C; }
thread {
  acquire lock;
  x = b.f;
  release lock;
  y = b.f;
  acquire lock;
  z = b.f;
  release lock;
}`
	prog := bfj.MustParse(src)
	a := New(prog, Options{})
	ctxs, renamed := a.AnalyzeContexts(prog.Threads[0], nil)
	// Find the statement indices in the renamed body.
	var readY, acq2 = -1, -1
	nAcq := 0
	for i, s := range renamed.Stmts {
		switch x := s.(type) {
		case *bfj.FieldRead:
			if x.X == "y" {
				readY = i
			}
		case *bfj.Acquire:
			nAcq++
			if nAcq == 2 {
				acq2 = i
			}
		}
	}
	if readY < 0 || acq2 < 0 {
		t.Fatal("statements not found")
	}
	// Before y = b.f: history has no access fact (released), anticipated
	// has b.f (the read itself plus the later read).
	h := ctxs[readY].H
	for _, f := range h.Facts() {
		if _, isAcc := f.(AccessFact); isAcc {
			t.Errorf("no access facts expected before y=b.f, got %v", f)
		}
	}
	aSet := ctxs[readY].A
	if !EntailsAnt(h, aSet, bfj.Read, expr.NewFieldPath("b", "f")) {
		t.Errorf("b.f should be anticipated before y=b.f: %v", aSet)
	}
	// Before the second acquire: b.f access fact present (unchecked);
	// anticipated set is empty.
	h2 := ctxs[acq2].H
	if !EntailsAccess(h2, bfj.Read, expr.NewFieldPath("b", "f")) {
		t.Errorf("b.f✁ expected before second acquire: %v", h2)
	}
	if ctxs[acq2].A.Len() != 0 {
		t.Errorf("anticipated set before acquire should be empty: %v", ctxs[acq2].A)
	}
}

// TestSolverTableSharesSolvers: within one body, histories with the
// same boolean facts share one solver (and its query caches), however
// they were derived; histories outside a body analysis build their own.
func TestSolverTableSharesSolvers(t *testing.T) {
	iPos := BoolFact{E: expr.Ge(expr.V("i"), expr.I(0))}
	jEq := BoolFact{E: expr.Eq(expr.V("j"), expr.Add(expr.V("i"), expr.I(1)))}
	acc := AccessFact{Kind: bfj.Read, Path: expr.NewFieldPath("p", "f")}

	root := bodyHistory(newSolverTable())
	h1 := root.Add(iPos, jEq)
	h2 := root.Add(jEq).Add(acc).Add(iPos)
	if h1.Solver() != h2.Solver() {
		t.Error("histories with the same boolean facts built different solvers")
	}
	h3 := h1.Filter(func(f Fact) bool { return f != Fact(jEq) })
	if h3.Solver() == h1.Solver() {
		t.Error("histories with different boolean facts share a solver")
	}
	if h4 := h2.Filter(func(f Fact) bool { _, isBool := f.(BoolFact); return isBool }); h4.Solver() != h1.Solver() {
		t.Error("dropping an access fact changed the solver")
	}
	if !h2.Solver().ProveLt(expr.V("i"), expr.V("j")) {
		t.Error("shared solver lost the facts")
	}

	other := bodyHistory(newSolverTable()).Add(iPos, jEq)
	if other.Solver() == h1.Solver() {
		t.Error("two bodies share a solver")
	}
	if NewHistory(iPos, jEq).Solver() == NewHistory(iPos, jEq).Solver() {
		t.Error("histories outside a body share a solver")
	}
}
