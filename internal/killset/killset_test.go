package killset

import (
	"testing"

	"bigfoot/internal/bfj"
	"bigfoot/internal/expr"
)

const src = `
class Plain {
  field f, g;
  method pure(x) {
    this.f = x;
    r = this.f;
    return r;
  }
  method locksIt(l) {
    acquire l;
    this.g = 1;
    release l;
  }
  method callsLocker(l) {
    this.locksIt(l);
  }
  method forksOnly(l) {
    h = fork this.pure(1);
  }
  method forksAndJoins(l) {
    h = fork this.pure(1);
    join h;
  }
}
class Vol {
  volatile field flag;
  field data;
  method publish() {
    this.data = 1;
    this.flag = 1;
  }
  method consume() {
    r = this.flag;
    d = this.data;
    return d;
  }
}
setup { }
`

func table(t *testing.T) *Table {
	t.Helper()
	return Compute(bfj.MustParse(src))
}

func TestPureMethodHasNoSyncEffects(t *testing.T) {
	tb := table(t)
	e := tb.Effects("pure", 1)
	if e.MayAcquire || e.MayRelease {
		t.Errorf("pure method flagged as syncing: %+v", e)
	}
	if !e.FieldsWritten["f"] {
		t.Error("field write not recorded")
	}
}

func TestLockEffectsPropagateTransitively(t *testing.T) {
	tb := table(t)
	direct := tb.Effects("locksIt", 1)
	if !direct.MayAcquire || !direct.MayRelease {
		t.Errorf("direct locker: %+v", direct)
	}
	indirect := tb.Effects("callsLocker", 1)
	if !indirect.MayAcquire || !indirect.MayRelease {
		t.Errorf("transitive locker: %+v", indirect)
	}
	if !indirect.FieldsWritten["g"] {
		t.Error("transitive field write not recorded")
	}
}

func TestForkIsReleaseJoinIsAcquire(t *testing.T) {
	tb := table(t)
	forks := tb.Effects("forksOnly", 1)
	if !forks.MayRelease || forks.MayAcquire {
		t.Errorf("fork-only: %+v", forks)
	}
	// The forked body runs concurrently: its writes are NOT the caller's.
	if forks.FieldsWritten["f"] {
		t.Error("forked body's writes must not propagate to the forking method")
	}
	both := tb.Effects("forksAndJoins", 1)
	if !both.MayRelease || !both.MayAcquire {
		t.Errorf("fork+join: %+v", both)
	}
}

func TestVolatileAccessesAreSync(t *testing.T) {
	tb := table(t)
	pub := tb.Effects("publish", 0)
	if !pub.MayRelease || pub.MayAcquire {
		t.Errorf("volatile write should be release-like: %+v", pub)
	}
	con := tb.Effects("consume", 0)
	if !con.MayAcquire {
		t.Errorf("volatile read should be acquire-like: %+v", con)
	}
	if !tb.IsVolatileField("flag") || tb.IsVolatileField("data") {
		t.Error("volatile field resolution wrong")
	}
}

func TestKillsAliasFact(t *testing.T) {
	tb := table(t)
	pure := tb.Effects("pure", 1)     // writes field f, no sync
	locks := tb.Effects("locksIt", 1) // acquires, writes g
	fSel := expr.FieldSel{Base: "a", Field: "f"}
	cases := []struct {
		name string
		eff  Effects
		fact expr.Expr
		want bool
	}{
		{"written field", pure, expr.Eq(expr.V("x"), fSel), true},
		{"written field in an arithmetic operand", pure, expr.Eq(expr.V("x"), expr.Add(expr.I(1), expr.Mul(expr.V("n"), fSel))), true},
		{"unwritten field", pure, expr.Eq(expr.V("x"), expr.FieldSel{Base: "a", Field: "zzz"}), false},
		{"heap-free", pure, expr.Eq(expr.V("x"), expr.I(3)), false},
		// Acquire-like callees kill every heap alias fact.
		{"acquiring callee, unwritten field", locks, expr.Eq(expr.V("x"), expr.FieldSel{Base: "a", Field: "zzz"}), true},
		{"acquiring callee, heap-free", locks, expr.Eq(expr.V("x"), expr.I(3)), false},
	}
	for _, c := range cases {
		if got := c.eff.KillsAliasFact(c.fact); got != c.want {
			t.Errorf("%s: KillsAliasFact(%s) = %v, want %v", c.name, c.fact, got, c.want)
		}
	}
}

func TestUnknownCallSiteIsHarmless(t *testing.T) {
	tb := table(t)
	e := tb.Effects("nosuchmethod", 3)
	if e.Syncs() || len(e.FieldsWritten) != 0 {
		t.Errorf("unknown callee should have empty effects: %+v", e)
	}
}

var (
	sinkEffects  Effects
	sinkVolatile bool
)

// TestLookupsAllocateNothing: Compute builds the table once; Effects
// and IsVolatileField only read it.
func TestLookupsAllocateNothing(t *testing.T) {
	tb := table(t)
	if n := testing.AllocsPerRun(100, func() {
		sinkEffects = tb.Effects("callsLocker", 1)
		sinkEffects = tb.Effects("nosuchmethod", 3)
		sinkVolatile = tb.IsVolatileField("flag")
		sinkVolatile = tb.IsVolatileField("data")
	}); n != 0 {
		t.Errorf("lookups allocate %v times per run, want 0", n)
	}
}
