package instrument

import (
	"strings"
	"testing"

	"bigfoot/internal/bfj"
)

func countChecks(b *bfj.Block) int {
	n := 0
	var walk func(*bfj.Block)
	walk = func(b *bfj.Block) {
		for _, s := range b.Stmts {
			switch x := s.(type) {
			case *bfj.Check:
				n += len(x.Items)
			case *bfj.If:
				walk(x.Then)
				walk(x.Else)
			case *bfj.Loop:
				walk(x.Pre)
				walk(x.Post)
			}
		}
	}
	walk(b)
	return n
}

func TestEveryAccessChecksEachAccess(t *testing.T) {
	prog := bfj.MustParse(`
class C { field f; }
setup { c = new C; a = newarray 10; }
thread {
  x = c.f;
  c.f = x + 1;
  y = a[0];
  a[1] = y;
}
`)
	inst, st := EveryAccess(prog)
	if st.ChecksInserted != 4 {
		t.Errorf("inserted %d checks, want 4", st.ChecksInserted)
	}
	if got := countChecks(inst.Threads[0]); got != 4 {
		t.Errorf("thread has %d check items, want 4", got)
	}
	// Each check immediately precedes its access.
	text := bfj.FormatBlock(inst.Threads[0], 0)
	lines := strings.Split(strings.TrimSpace(text), "\n")
	for i, ln := range lines {
		if strings.HasPrefix(strings.TrimSpace(ln), "check ") && i+1 >= len(lines) {
			t.Errorf("dangling check at end:\n%s", text)
		}
	}
}

func TestEveryAccessSkipsVolatilesAndSetup(t *testing.T) {
	prog := bfj.MustParse(`
class C { volatile field v; field f; }
setup { c = new C; c.f = 1; }
thread {
  x = c.v;
  c.v = x;
}
`)
	inst, st := EveryAccess(prog)
	if st.ChecksInserted != 0 {
		t.Errorf("volatile accesses must not be checked, inserted %d", st.ChecksInserted)
	}
	if countChecks(inst.Setup) != 0 {
		t.Error("setup must not be instrumented")
	}
}

func TestRedCardEliminatesRepeatedReads(t *testing.T) {
	prog := bfj.MustParse(`
class C { field f; }
setup { c = new C; }
thread {
  a = c.f;
  b = c.f;
  d = c.f;
}
`)
	_, st := RedCard(prog)
	if st.ChecksInserted != 1 || st.ChecksSuppressed != 2 {
		t.Errorf("inserted=%d suppressed=%d, want 1/2", st.ChecksInserted, st.ChecksSuppressed)
	}
}

func TestRedCardWriteCoversLaterRead(t *testing.T) {
	prog := bfj.MustParse(`
class C { field f; }
setup { c = new C; }
thread {
  c.f = 1;
  x = c.f;
}
`)
	_, st := RedCard(prog)
	if st.ChecksSuppressed != 1 {
		t.Errorf("write check should cover the read-back, suppressed=%d", st.ChecksSuppressed)
	}
}

func TestRedCardReadDoesNotCoverWrite(t *testing.T) {
	prog := bfj.MustParse(`
class C { field f; }
setup { c = new C; }
thread {
  x = c.f;
  c.f = x + 1;
}
`)
	_, st := RedCard(prog)
	if st.ChecksSuppressed != 0 {
		t.Errorf("a read check cannot cover a write, suppressed=%d", st.ChecksSuppressed)
	}
}

func TestRedCardSpanEndsAtRelease(t *testing.T) {
	prog := bfj.MustParse(`
class C { field f; }
setup { c = new C; l = new C; }
thread {
  x = c.f;
  release l;
  y = c.f;
}
`)
	// Technically unlock-without-lock fails at run time; instrumentation
	// is static and must still treat the release as a span boundary.
	_, st := RedCard(prog)
	if st.ChecksSuppressed != 0 {
		t.Errorf("release must end the span, suppressed=%d", st.ChecksSuppressed)
	}
}

func TestRedCardSpanSurvivesAcquire(t *testing.T) {
	prog := bfj.MustParse(`
class C { field f; }
setup { c = new C; l = new C; }
thread {
  x = c.f;
  acquire l;
  y = c.f;
  release l;
}
`)
	_, st := RedCard(prog)
	if st.ChecksSuppressed != 1 {
		t.Errorf("covering range survives acquires, suppressed=%d", st.ChecksSuppressed)
	}
}

// TestRedCardVariableReassignmentInvalidates: an assignment ends every
// span entry whose path mentions the assigned variable, whichever block
// holds the assignment and whichever made the entry.
func TestRedCardVariableReassignmentInvalidates(t *testing.T) {
	for _, c := range []struct{ name, thread string }{
		{"same block", `x = c.f; c = d; y = c.f;`},
		{"receiver reassigned in a branch", `x = c.f; if (x == 0) { c = d; y = c.f; }`},
		{"index reassigned in a branch", `x = a[i]; if (x == 0) { i = i + 1; y = a[i]; }`},
		{"receiver reassigned after both branches checked", `if (i > 0) { x = c.f; } else { y = c.f; } c = d; z = c.f;`},
	} {
		prog := bfj.MustParse(`
class C { field f; }
setup { c = new C; d = new C; a = newarray 4; i = 0; }
thread { ` + c.thread + ` }
`)
		if _, st := RedCard(prog); st.ChecksSuppressed != 0 {
			t.Errorf("%s: the second access reaches another location, yet %d checks were suppressed", c.name, st.ChecksSuppressed)
		}
	}
}

func TestRedCardArrayIndexSensitivity(t *testing.T) {
	prog := bfj.MustParse(`
setup { a = newarray 10; i = 1; }
thread {
  x = a[i];
  y = a[i];
  z = a[i + 1];
}
`)
	_, st := RedCard(prog)
	if st.ChecksSuppressed != 1 {
		t.Errorf("same symbolic index suppressed once, different index kept: suppressed=%d", st.ChecksSuppressed)
	}
}

func TestRedCardBranchIntersection(t *testing.T) {
	prog := bfj.MustParse(`
class C { field f, g; }
setup { c = new C; b = 1; }
thread {
  if (b > 0) {
    x = c.f;
    x2 = c.g;
  } else {
    y = c.f;
  }
  z = c.f;
  w = c.g;
}
`)
	// c.f is checked on both branches -> the post-if read is covered;
	// c.g only on one branch -> its post-if read needs a check.
	_, st := RedCard(prog)
	if st.ChecksSuppressed != 1 {
		t.Errorf("branch intersection: suppressed=%d, want 1", st.ChecksSuppressed)
	}
}

func TestRedCardCallBoundary(t *testing.T) {
	prog := bfj.MustParse(`
class C {
  field f;
  method syncs(l) {
    acquire l;
    release l;
  }
  method pure() {
    r = 0;
    return r;
  }
}
setup { c = new C; l = new C; }
thread {
  x = c.f;
  p = c.pure();
  y = c.f;
  c.syncs(l);
  z = c.f;
}
`)
	// The pure call keeps the span (y suppressed); the syncing call ends
	// it (z checked).
	_, st := RedCard(prog)
	if st.ChecksSuppressed != 1 {
		t.Errorf("call boundaries: suppressed=%d, want 1", st.ChecksSuppressed)
	}
}
