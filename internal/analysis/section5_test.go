package analysis

import (
	"strings"
	"testing"

	"bigfoot/internal/bfj"
)

// These tests cover the implementation features of §5: alias
// expressions, interprocedural kill sets at call sites, fork/join and
// volatile synchronization, read/write distinction, and loop shapes
// beyond Fig. 6.

// TestAliasExpressionsMergeChecks reproduces the §5 alias example:
// x = a.f; s = x.g; y = a.f; t = y.g inside one critical section — the
// alias facts prove x = y, so a single check on x.g covers both .g
// reads (plus one read check on a.f).
func TestAliasExpressionsMergeChecks(t *testing.T) {
	src := `
class C { field f, g; }
setup { a = new C; inner = new C; a.f = 0; lock = new C; }
thread {
  acquire lock;
  x = a.f;
  s = x.g;
  y = a.f;
  u = y.g;
  release lock;
}`
	got := instrumentThread(t, src)
	// Expect exactly one check statement (before the release) with two
	// items: read(a.f) and read(x.g) — no separate check on y.g.
	if n := countChecks(got); n != 1 {
		t.Fatalf("want 1 check stmt, got %d:\n%s", n, got)
	}
	if strings.Contains(got, "read(y.g") {
		t.Errorf("y.g check should be covered via aliasing:\n%s", got)
	}
	if !strings.Contains(got, "read(x.g") && !strings.Contains(got, "read(x.g)") {
		t.Errorf("expected a read check on x.g:\n%s", got)
	}
}

// TestWriteInvalidatesAliasFacts: a write to the aliased field between
// the two reads must invalidate x = a.f, forcing separate checks.
func TestWriteInvalidatesAliasFacts(t *testing.T) {
	src := `
class C { field f, g; }
setup { a = new C; b = new C; lock = new C; }
thread {
  acquire lock;
  x = a.f;
  s = x.g;
  b.f = 7;
  y = a.f;
  u = y.g;
  release lock;
}`
	got := instrumentThread(t, src)
	// After b.f is written (b may alias a), x = a.f is no longer known,
	// so both x.g and y.g need checks.
	if !strings.Contains(got, "x.g") || !strings.Contains(got, "y.g") {
		t.Errorf("both .g reads need checks after alias invalidation:\n%s", got)
	}
}

// TestSyncingCallForcesChecks: a call whose callee releases a lock ends
// the legitimate check range, so pending accesses are checked before
// the call ([Call] with KillSetHistory = {_✁, _✓}).
func TestSyncingCallForcesChecks(t *testing.T) {
	src := `
class C {
  field f;
  method syncs(l) {
    acquire l;
    release l;
  }
  method pure(v) {
    r = v + 1;
    return r;
  }
}
setup { c = new C; l = new C; }
thread {
  x = c.f;
  p = c.pure(1);
  c.syncs(l);
  y = c.f;
}`
	got := instrumentThread(t, src)
	lines := strings.Split(got, "\n")
	checkIdx, callIdx := -1, -1
	for i, ln := range lines {
		s := strings.TrimSpace(ln)
		if strings.HasPrefix(s, "check read(c.f)") && checkIdx == -1 {
			checkIdx = i
		}
		if strings.HasPrefix(s, "c.syncs(") {
			callIdx = i
		}
	}
	if checkIdx == -1 || callIdx == -1 || checkIdx > callIdx {
		t.Errorf("check must precede the syncing call (check@%d call@%d):\n%s", checkIdx, callIdx, got)
	}
	// The pure call must NOT force a check before it: exactly 2 checks
	// total (before syncs, and end-of-body for y).
	if n := countChecks(got); n != 2 {
		t.Errorf("want 2 checks, got %d:\n%s", n, got)
	}
}

// TestForkActsAsRelease: accesses before a fork are checked before it.
func TestForkActsAsRelease(t *testing.T) {
	src := `
class C {
  field f;
  method child() {
    r = 0;
    return r;
  }
}
setup { c = new C; }
thread {
  c.f = 1;
  h = fork c.child();
  join h;
  c.f = 2;
}`
	got := instrumentThread(t, src)
	lines := strings.Split(got, "\n")
	forkIdx, firstCheck := -1, -1
	for i, ln := range lines {
		s := strings.TrimSpace(ln)
		if strings.HasPrefix(s, "check write(c.f)") && firstCheck == -1 {
			firstCheck = i
		}
		if strings.HasPrefix(s, "h = fork") {
			forkIdx = i
		}
	}
	if firstCheck == -1 || firstCheck > forkIdx {
		t.Errorf("write must be checked before the fork:\n%s", got)
	}
}

// TestJoinEndsCoveringRange: an access before a join must be checked
// before it (the acquire-like join ends its covering range); that same
// check then also covers the post-join read (it precedes it with no
// intervening release), so exactly one check suffices — the Fig. 3
// structure with a join instead of an acquire.
func TestJoinEndsCoveringRange(t *testing.T) {
	src := `
class C {
  field f;
  method child() {
    r = 0;
    return r;
  }
}
setup { c = new C; }
thread {
  h = fork c.child();
  x = c.f;
  join h;
  y = c.f;
}`
	got := instrumentThread(t, src)
	if n := countChecks(got); n != 1 {
		t.Fatalf("want exactly 1 check, got %d:\n%s", n, got)
	}
	// And it must be before the join.
	if strings.Index(got, "check read(c.f)") > strings.Index(got, "join h") {
		t.Errorf("check must precede the join:\n%s", got)
	}
}

// TestDescendingLoopCoalesces: a count-down loop coalesces into a
// single post-loop range check.
func TestDescendingLoopCoalesces(t *testing.T) {
	src := `
setup { a = newarray 100; n = 100; }
thread {
  i = n - 1;
  while (i >= 0) {
    a[i] = i;
    i = i - 1;
  }
}`
	got := instrumentThread(t, src)
	if n := countChecks(got); n != 1 {
		t.Fatalf("want 1 check, got %d:\n%s", n, got)
	}
	if !strings.Contains(got, "write(a[") || !strings.Contains(got, "..") {
		t.Errorf("expected a coalesced range check:\n%s", got)
	}
}

// TestSymbolicOffsetLoop: the lufact row pattern m[i*n + j] for j in
// [k, n) coalesces into one range check with a symbolic base offset.
func TestSymbolicOffsetLoop(t *testing.T) {
	src := `
setup { m = newarray 100; n = 10; i = 3; k = 2; }
thread {
  for (j = k; j < n; j = j + 1) {
    v = m[i * n + j];
    m[i * n + j] = v * 2;
  }
}`
	got := instrumentThread(t, src)
	if n := countChecks(got); n != 1 {
		t.Fatalf("want 1 coalesced check, got %d:\n%s", n, got)
	}
	if !strings.Contains(got, "write(m[") {
		t.Errorf("expected write range check on m:\n%s", got)
	}
	// No checks inside the loop.
	loopPart := got[strings.Index(got, "loop {"):strings.LastIndex(got, "}")]
	if idx := strings.Index(loopPart, "check"); idx >= 0 && idx < strings.Index(loopPart, "break") {
		t.Errorf("check leaked into the loop:\n%s", got)
	}
}

// TestReadThenWriteDistinction: read-after-write in a loop needs only
// write checks; the write check covers both kinds.
func TestReadThenWriteDistinction(t *testing.T) {
	src := `
setup { a = newarray 50; }
thread {
  for (i = 0; i < 50; i = i + 1) {
    v = a[i];
    a[i] = v + 1;
    w = a[i];
  }
}`
	got := instrumentThread(t, src)
	if strings.Contains(got, "read(a[") {
		t.Errorf("reads are covered by the write check:\n%s", got)
	}
	if !strings.Contains(got, "write(a[0..") {
		t.Errorf("expected coalesced write check:\n%s", got)
	}
}

// TestVolatileInLoopLimitsDeferral: a volatile write in the loop body
// forces per-iteration checks (checks cannot cross synchronization).
func TestVolatileInLoopLimitsDeferral(t *testing.T) {
	src := `
class C { volatile field v; field d; }
setup { c = new C; a = newarray 10; }
thread {
  for (i = 0; i < 10; i = i + 1) {
    a[i] = i;
    c.v = i;
  }
}`
	got := instrumentThread(t, src)
	// The a[i] write must be checked before each volatile write.
	loopStart := strings.Index(got, "loop {")
	volIdx := strings.Index(got[loopStart:], "c.v =")
	checkIdx := strings.Index(got[loopStart:], "check write(a[i")
	if checkIdx == -1 || checkIdx > volIdx {
		t.Errorf("per-iteration check before the volatile write expected:\n%s", got)
	}
}

// TestNestedLocksPlacement: nested critical sections place checks at
// the innermost releases correctly and never double-check.
func TestNestedLocksPlacement(t *testing.T) {
	src := `
class C { field f, g; }
setup { c = new C; l1 = new C; l2 = new C; }
thread {
  acquire l1;
  c.f = 1;
  acquire l2;
  c.g = 2;
  release l2;
  release l1;
}`
	got := instrumentThread(t, src)
	// c.f must be checked before "acquire l2": the acquire ends its
	// covering range (a later check would not cover it).  c.g is checked
	// before "release l2".  Two checks, both inside their legitimate and
	// covering ranges.
	if n := countChecks(got); n != 2 {
		t.Fatalf("want 2 checks, got %d:\n%s", n, got)
	}
	fIdx := strings.Index(got, "check write(c.f)")
	acq2 := strings.Index(got, "acquire l2")
	gIdx := strings.Index(got, "check write(c.g)")
	rel2 := strings.Index(got, "release l2")
	if fIdx == -1 || fIdx > acq2 {
		t.Errorf("c.f check must precede acquire l2:\n%s", got)
	}
	if gIdx == -1 || gIdx > rel2 {
		t.Errorf("c.g check must precede release l2:\n%s", got)
	}
}

// TestEmptyThreadBody: degenerate inputs produce no checks and no
// crashes.
func TestEmptyThreadBody(t *testing.T) {
	got := instrumentThread(t, `setup { } thread { }`)
	if countChecks(got) != 0 {
		t.Errorf("empty body has checks:\n%s", got)
	}
}

// TestAnalysisIsIdempotentOnPrograms: instrumenting the same program
// twice yields identical output (determinism of the whole pipeline).
func TestAnalysisIsIdempotentOnPrograms(t *testing.T) {
	src := `
class C { field f; }
setup { c = new C; a = newarray 30; l = new C; }
thread {
  acquire l;
  for (i = 0; i < 30; i = i + 1) { a[i] = i; }
  x = c.f;
  release l;
}`
	prog := bfj.MustParse(src)
	t1 := bfj.FormatProgram(New(prog, Options{}).Instrument())
	t2 := bfj.FormatProgram(New(prog, Options{}).Instrument())
	if t1 != t2 {
		t.Errorf("non-deterministic instrumentation:\n--- first\n%s\n--- second\n%s", t1, t2)
	}
}
