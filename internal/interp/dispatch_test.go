package interp

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"bigfoot/internal/bfj"
)

// runErr runs a well-formed program (bfj.Parse applies CheckProgram)
// and returns its printed output and run error.
func runErr(t *testing.T, src string, hook Hook) (string, error) {
	t.Helper()
	prog, err := bfj.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var out strings.Builder
	_, err = Run(prog, hook, Options{Seed: 1, Out: &out})
	return out.String(), err
}

func TestValueIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

// TestUndeclaredField: CheckProgram resolves field names by name alone,
// so a receiver whose class never declares a field may still access
// it.  The field reads as integer 0 until written, keeps writes, and is
// a plain (non-volatile) access even where another class declares it
// volatile.
func TestUndeclaredField(t *testing.T) {
	h := &syncCounter{}
	out, err := runErr(t, `
class V { volatile field f; }
class B { field g; }
setup {
  b = new B;
  x = b.f;
  b.f = 7;
  y = b.f;
  z = b.g;
  print x, y, z;
}`, h)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "0 7 0" {
		t.Errorf("output %q, want \"0 7 0\"", out)
	}
	if h.vol != 0 || h.plain != 1 {
		t.Errorf("volatile writes %d, plain writes %d; want 0 and 1", h.vol, h.plain)
	}
}

// TestReusedFrameStartsUnassigned: the second call's frame occupies the
// stack slots of the first, which assigned x; x must still read as
// unassigned in the second.
func TestReusedFrameStartsUnassigned(t *testing.T) {
	_, err := runErr(t, `
class C {
  method m(k) {
    if (k == 1) { x = 1; } else { y = x; }
  }
}
setup { c = new C; c.m(1); c.m(2); }`, NopHook{})
	const want = "thread 0: read of unassigned variable (slot 2)"
	if err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}

// TestCallDepthLimit: 513 nested calls run; the 514th fails.
func TestCallDepthLimit(t *testing.T) {
	const src = `
class C {
  method m(n) {
    if (n > 1) { k = n - 1; this.m(k); }
  }
}
setup { c = new C; c.m(%d); }`
	if _, err := runErr(t, fmt.Sprintf(src, 513), NopHook{}); err != nil {
		t.Fatalf("513 nested calls: %v", err)
	}
	_, err := runErr(t, fmt.Sprintf(src, 514), NopHook{})
	const want = "thread 0: call stack overflow in C.m"
	if err == nil || err.Error() != want {
		t.Errorf("514 nested calls: error %v, want %q", err, want)
	}
}

// TestDispatchByReceiverClass: two classes declare m with different
// bodies and frame sizes; calls and forks run the receiver's.
func TestDispatchByReceiverClass(t *testing.T) {
	out, err := runErr(t, `
class Box { field v; }
class A { method m(b) { b.v = 1; } }
class B { method m(b) { one = 1; two = one + one; b.v = two; } }
setup {
  a = new A;
  bb = new B;
  x = new Box;
  y = new Box;
  a.m(x);
  bb.m(y);
  p = x.v;
  q = y.v;
  print p, q;
  h1 = fork bb.m(x);
  join h1;
  h2 = fork a.m(y);
  join h2;
  p = x.v;
  q = y.v;
  print p, q;
}`, NopHook{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Fields(out); strings.Join(got, " ") != "1 2 2 1" {
		t.Errorf("output %q, want \"1 2\" then \"2 1\"", out)
	}
}

// TestArityMismatch: CheckProgram accepts a call or fork whose arity
// some class declares, so a receiver whose method has another arity is
// a runtime error, with the same message for both.
func TestArityMismatch(t *testing.T) {
	const classes = `
class A { method m() { x = 1; } }
class B { method m(p, q, r) { x = p; } }
`
	for _, body := range []string{
		`setup { a = new A; a.m(1, 2, 3); }`,
		`setup { a = new A; h = fork a.m(1, 2, 3); join h; }`,
	} {
		_, err := runErr(t, classes+body, NopHook{})
		const want = "thread 0: method A.m expects 0 args, got 3"
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", body, err, want)
		}
	}
}

// TestInterpAllocsFlat: under NopHook a loop of calls, field accesses
// and array accesses allocates nothing per iteration (frames come from
// the thread's stack, fields from the object's slice, and the scheduler
// reuses its scratch), so a run's allocations do not grow with its
// iteration count.  Four threads of tight loops switch slices hundreds
// of times per run, so resuming and suspending a thread coroutine must
// not allocate either.  Nor may the typed expression closures: the
// third loop evaluates every logical operator, unary minus, division,
// modulo and nested arithmetic, and makes an every-access array check.
func TestInterpAllocsFlat(t *testing.T) {
	const loop = `
  for (i = 0; i < %[1]d; i = i + 1) {
    j = i %% 16;
    s = p.step(a, j);
    a[j] = s;
  }`
	const threads = `
thread { for (i = 0; i < %[1]d; i = i + 1) { x = i + 1; } }
thread { for (i = 0; i < %[1]d; i = i + 1) { x = i + 2; } }
thread { for (i = 0; i < %[1]d; i = i + 1) { x = i + 3; } }
thread { for (i = 0; i < %[1]d; i = i + 1) { x = i + 4; } }`
	const typed = `
thread {
  for (i = 0; i < %[1]d; i = i + 1) {
    j = (i * 7 + 3) %% 16;
    k = -j / 3;
    small = j < 4;
    if (!small && (k != -2 || j >= 8)) { m = j; } else { m = 0 - k; }
    check write(a[m]);
    a[m] = k * (j + 1) - i;
  }
}`
	for _, tc := range []struct{ name, body string }{
		{"one thread", "thread {" + loop + "\n}"},
		{"four threads", threads},
		{"typed closures", typed},
	} {
		allocs := func(n int) float64 {
			c := MustCompile(bfj.MustParse(fmt.Sprintf(`
class P {
  field x;
  field y;
  method step(a, i) {
    v = a[i];
    this.x = v + i;
    w = this.y;
    this.y = w + 1;
    r = this.x;
    return r;
  }
}
setup { p = new P; a = newarray 16; }`+tc.body, n)))
			return testing.AllocsPerRun(5, func() {
				if _, err := c.Run(NopHook{}, Options{Seed: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
		const n = 2000
		a1, a2 := allocs(n), allocs(2*n)
		t.Logf("%s: allocations per run: %v at %d iterations, %v at %d", tc.name, a1, n, a2, 2*n)
		if a2 > a1 {
			t.Errorf("%s: allocations grow with iterations: %v at %d, %v at %d", tc.name, a1, n, a2, 2*n)
		}
	}
}
