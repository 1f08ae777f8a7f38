package bfj

import (
	"strings"
	"testing"

	"bigfoot/internal/expr"
)

const pointSrc = `
class Point {
  field x, y, z;
  method move(dx, dy, dz) {
    var tmp;
    tmp = this.x;
    this.x = tmp + dx;
    tmp = this.y;
    this.y = tmp + dy;
    tmp = this.z;
    this.z = tmp + dz;
  }
}
setup {
  p = new Point;
}
thread {
  p.move(1, 1, 1);
}
`

func TestParsePoint(t *testing.T) {
	prog, err := Parse(pointSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Classes) != 1 || prog.Classes[0].Name != "Point" {
		t.Fatalf("classes: %+v", prog.Classes)
	}
	c := prog.Classes[0]
	if len(c.Fields) != 3 {
		t.Fatalf("fields: %+v", c.Fields)
	}
	m := c.Methods[0]
	if m.Name != "move" || len(m.Params) != 4 || m.Params[0] != "this" {
		t.Fatalf("method: %+v", m)
	}
	if len(prog.Threads) != 1 {
		t.Fatalf("threads: %d", len(prog.Threads))
	}
	call, ok := prog.Threads[0].Stmts[0].(*Call)
	if !ok || call.M != "move" || call.Y != "p" || len(call.Args) != 3 {
		t.Fatalf("thread call: %+v", prog.Threads[0].Stmts[0])
	}
}

func TestParseHoistsHeapReads(t *testing.T) {
	prog := MustParse(`
setup {
  a = newarray 10;
  p = new C;
  x = a[3] + p.f;
}
class C { field f; }
`)
	var kinds []string
	for _, s := range prog.Setup.Stmts {
		switch s.(type) {
		case *NewArray:
			kinds = append(kinds, "newarray")
		case *New:
			kinds = append(kinds, "new")
		case *ArrayRead:
			kinds = append(kinds, "aread")
		case *FieldRead:
			kinds = append(kinds, "fread")
		case *Assign:
			kinds = append(kinds, "assign")
		}
	}
	want := "newarray new aread fread assign"
	if got := strings.Join(kinds, " "); got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestParseDirectReadRetargets(t *testing.T) {
	prog := MustParse(`setup { a = newarray 5; x = a[0]; }`)
	last := prog.Setup.Stmts[len(prog.Setup.Stmts)-1]
	ar, ok := last.(*ArrayRead)
	if !ok {
		t.Fatalf("want direct ArrayRead, got %T", last)
	}
	if ar.X != "x" {
		t.Errorf("read target = %s, want x", ar.X)
	}
}

func TestParseWhileLowersToGuardedDoWhile(t *testing.T) {
	// while (c) { body } lowers to if (c) { loop { body; if !c break } }
	// so that the loop body precedes the exit test (paper §5).
	prog := MustParse(`setup {
  i = 0;
  while (i < 10) { i = i + 1; }
}`)
	guard, ok := prog.Setup.Stmts[1].(*If)
	if !ok {
		t.Fatalf("want guard If, got %T", prog.Setup.Stmts[1])
	}
	if guard.Cond.String() != "(i < 10)" {
		t.Errorf("guard cond = %s", guard.Cond)
	}
	lp, ok := guard.Then.Stmts[0].(*Loop)
	if !ok {
		t.Fatalf("want Loop inside guard, got %T", guard.Then.Stmts[0])
	}
	if lp.Cond.String() != "(i >= 10)" {
		t.Errorf("exit cond = %s", lp.Cond)
	}
	if len(lp.Pre.Stmts) == 0 || len(lp.Post.Stmts) != 0 {
		t.Errorf("do-while shape wrong: pre=%d post=%d", len(lp.Pre.Stmts), len(lp.Post.Stmts))
	}
}

func TestParseWhileConditionHeapReadsReexecute(t *testing.T) {
	prog := MustParse(`
class C { field done; }
setup {
  c = new C;
  while (c.done == 0) { x = 1; }
}`)
	// Initial test read happens before the guard; the loop re-executes a
	// fresh read at the end of each iteration.
	if _, ok := prog.Setup.Stmts[1].(*FieldRead); !ok {
		t.Fatalf("want hoisted guard read, got %T", prog.Setup.Stmts[1])
	}
	guard, ok := prog.Setup.Stmts[2].(*If)
	if !ok {
		t.Fatalf("want guard If, got %T", prog.Setup.Stmts[2])
	}
	lp := guard.Then.Stmts[0].(*Loop)
	n := len(lp.Pre.Stmts)
	if _, ok := lp.Pre.Stmts[n-1].(*FieldRead); !ok {
		t.Errorf("loop should re-read the condition, last pre stmt is %T", lp.Pre.Stmts[n-1])
	}
}

func TestParseForLoop(t *testing.T) {
	prog := MustParse(`setup {
  a = newarray 10;
  for (i = 0; i < 10; i = i + 1) { a[i] = i; }
}`)
	if _, ok := prog.Setup.Stmts[1].(*Assign); !ok {
		t.Fatalf("for init should be an assign, got %T", prog.Setup.Stmts[1])
	}
	guard, ok := prog.Setup.Stmts[2].(*If)
	if !ok {
		t.Fatalf("want guard If, got %T", prog.Setup.Stmts[2])
	}
	lp, ok := guard.Then.Stmts[0].(*Loop)
	if !ok {
		t.Fatalf("want Loop, got %T", guard.Then.Stmts[0])
	}
	n := len(lp.Pre.Stmts)
	if _, ok := lp.Pre.Stmts[n-1].(*Assign); !ok {
		t.Errorf("for update should be last before the exit test")
	}
}

func TestParseDoWhile(t *testing.T) {
	prog := MustParse(`setup {
  i = 0;
  do { i = i + 1; } while (i < 5);
}`)
	lp, ok := prog.Setup.Stmts[1].(*Loop)
	if !ok {
		t.Fatalf("want Loop, got %T", prog.Setup.Stmts[1])
	}
	if len(lp.Pre.Stmts) != 1 || len(lp.Post.Stmts) != 0 {
		t.Errorf("do-while shape wrong: pre=%d post=%d", len(lp.Pre.Stmts), len(lp.Post.Stmts))
	}
}

func TestParseCheckStatement(t *testing.T) {
	prog := MustParse(`
class P { field x, y; }
setup {
  p = new P;
  a = newarray 10;
  check write(p.x/y), read(a[0..10:2]), read(a[3]);
}`)
	chk := prog.Setup.Stmts[2].(*Check)
	if len(chk.Items) != 3 {
		t.Fatalf("items: %d", len(chk.Items))
	}
	if chk.Items[0].Kind != Write || chk.Items[0].Path.String() != "p.x/y" {
		t.Errorf("item0: %s(%s)", chk.Items[0].Kind, chk.Items[0].Path)
	}
	if chk.Items[1].Kind != Read || chk.Items[1].Path.String() != "a[0..10:2]" {
		t.Errorf("item1: %s(%s)", chk.Items[1].Kind, chk.Items[1].Path)
	}
	if _, isSingle := chk.Items[2].Path.(expr.ArrayPath).Range.IsSingleton(); !isSingle {
		t.Errorf("item2 should be singleton")
	}
}

func TestParseForkJoinVolatile(t *testing.T) {
	prog := MustParse(`
class Worker {
  volatile field flag;
  field data;
  method run(n) { this.data = n; this.flag = 1; }
}
setup {
  w = new Worker;
  t = fork w.run(42);
  join t;
}`)
	if !prog.IsVolatile("Worker", "flag") {
		t.Error("flag should be volatile")
	}
	if prog.IsVolatile("Worker", "data") {
		t.Error("data should not be volatile")
	}
	if _, ok := prog.Setup.Stmts[1].(*Fork); !ok {
		t.Errorf("stmt1 = %T, want Fork", prog.Setup.Stmts[1])
	}
	if _, ok := prog.Setup.Stmts[2].(*Join); !ok {
		t.Errorf("stmt2 = %T, want Join", prog.Setup.Stmts[2])
	}
}

func TestParseMethodReturn(t *testing.T) {
	prog := MustParse(`
class C {
  field v;
  method get() { r = this.v; return r; }
}`)
	m := prog.Classes[0].Methods[0]
	if m.Ret != "r" {
		t.Errorf("ret = %q", m.Ret)
	}
	if len(m.Body.Stmts) != 1 {
		t.Errorf("return should be stripped from body")
	}
}

func TestParseRejectsMidBlockReturn(t *testing.T) {
	_, err := Parse(`
class C {
  method f() { return x; y = 1; }
}`)
	if err == nil {
		t.Error("mid-block return should be rejected")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`class {`,
		`setup { x = ; }`,
		`setup { x = new Missing; }`,
		`thread { y.nosuch(1); }`,
		`setup { check read(x); }`,
		`setup { x = 1 }`,
		`class C { field f; field f; }`,
		`class C { } class C { }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseRenameStatement(t *testing.T) {
	prog := MustParse("setup { i = 0; i' <- i; }")
	rn, ok := prog.Setup.Stmts[1].(*Rename)
	if !ok {
		t.Fatalf("want Rename, got %T", prog.Setup.Stmts[1])
	}
	if rn.X != "i'" || rn.Y != "i" {
		t.Errorf("rename: %s <- %s", rn.X, rn.Y)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	prog := MustParse(pointSrc)
	text := FormatProgram(prog)
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse of formatted program failed: %v\n%s", err, text)
	}
	text2 := FormatProgram(prog2)
	if text != text2 {
		t.Errorf("format not stable:\n--- first\n%s\n--- second\n%s", text, text2)
	}
}

func TestCloneIsDeep(t *testing.T) {
	prog := MustParse(pointSrc)
	cl := prog.Clone()
	cl.Classes[0].Methods[0].Body.Stmts[0].(*FieldRead).F = "CHANGED"
	if prog.Classes[0].Methods[0].Body.Stmts[0].(*FieldRead).F == "CHANGED" {
		t.Error("clone shares method body with original")
	}
	cl.Threads[0].Stmts[0].(*Call).M = "zzz"
	if prog.Threads[0].Stmts[0].(*Call).M == "zzz" {
		t.Error("clone shares thread body with original")
	}
}

func TestAccessKindCovers(t *testing.T) {
	if !Write.Covers(Read) || !Write.Covers(Write) {
		t.Error("write check must cover both kinds")
	}
	if !Read.Covers(Read) {
		t.Error("read check must cover reads")
	}
	if Read.Covers(Write) {
		t.Error("read check must not cover writes")
	}
}

func TestLexerComments(t *testing.T) {
	prog := MustParse(`
// line comment
setup {
  /* block
     comment */
  x = 1; // trailing
}`)
	if len(prog.Setup.Stmts) != 1 {
		t.Errorf("stmts: %d", len(prog.Setup.Stmts))
	}
}

// TestFormatProgramCoversAllStatements pretty-prints a program using
// every statement form and re-parses it.
func TestFormatProgramCoversAllStatements(t *testing.T) {
	src := `
class All {
  volatile field vf;
  field pf;
  method m(p) {
    x = p + 1;
    o = new All;
    a = newarray 10;
    f = o.pf;
    o.pf = f + 1;
    e = a[0];
    a[1] = e;
    acquire o;
    release o;
    if (x > 0) {
      print x;
    } else {
      assert x <= 0;
    }
    do { x = x - 1; } while (x > 0);
    y = o.m2();
    h = fork o.m2();
    join h;
    check write(o.pf), read(a[0..10:2]);
    return y;
  }
  method m2() {
    r = 7;
    return r;
  }
}
setup { q = new All; z = q.m(3); }
thread { w = q.m(1); }
`
	prog := MustParse(src)
	text := FormatProgram(prog)
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if FormatProgram(prog2) != text {
		t.Error("format not a fixed point")
	}
}

// TestFormatStmtSingle exercises Format on individual statements.
func TestFormatStmtSingle(t *testing.T) {
	prog := MustParse(`setup { i = 0; i' <- i; print i, i'; }`)
	for _, s := range prog.Setup.Stmts {
		if Format(s) == "" {
			t.Errorf("empty rendering for %T", s)
		}
	}
}

// TestParseElseIfChains verifies nested else-if sugar.
func TestParseElseIfChains(t *testing.T) {
	prog := MustParse(`
setup {
  x = 5;
  if (x > 10) {
    y = 1;
  } else if (x > 3) {
    y = 2;
  } else {
    y = 3;
  }
}`)
	outer := prog.Setup.Stmts[1].(*If)
	inner, ok := outer.Else.Stmts[0].(*If)
	if !ok {
		t.Fatalf("else-if not nested: %T", outer.Else.Stmts[0])
	}
	if len(inner.Else.Stmts) != 1 {
		t.Error("final else missing")
	}
}

// TestParseOperatorPrecedence checks the expression grammar.
func TestParseOperatorPrecedence(t *testing.T) {
	prog := MustParse(`setup {
  a = 1 + 2 * 3;
  b = (1 + 2) * 3;
  c = 10 - 2 - 3;
  d = 1 < 2 && 3 < 4 || false;
  e = !(1 == 2);
}`)
	want := map[int]string{
		0: "(1 + (2 * 3))",
		1: "((1 + 2) * 3)",
		2: "((10 - 2) - 3)",
		3: "(((1 < 2) && (3 < 4)) || false)",
		4: "(1 != 2)",
	}
	for i, w := range want {
		got := prog.Setup.Stmts[i].(*Assign).E.String()
		if got != w {
			t.Errorf("stmt %d: %s, want %s", i, got, w)
		}
	}
}

// TestLookupHelpers covers class/method/field resolution.
func TestLookupHelpers(t *testing.T) {
	prog := MustParse(`
class A { field f; method m() { r = 1; return r; } }
class B { volatile field g; }
setup { }`)
	if prog.LookupClass("A") == nil || prog.LookupClass("Z") != nil {
		t.Error("LookupClass wrong")
	}
	if prog.LookupMethod("A", "m") == nil || prog.LookupMethod("A", "zz") != nil || prog.LookupMethod("Z", "m") != nil {
		t.Error("LookupMethod wrong")
	}
	if prog.LookupMethod("A", "m").QualifiedName() != "A.m" {
		t.Error("QualifiedName wrong")
	}
	if got := prog.LookupClass("A").FieldNames(); len(got) != 1 || got[0] != "f" {
		t.Errorf("FieldNames = %v", got)
	}
	if got := prog.LookupClass("B").FieldNames(); len(got) != 0 {
		t.Errorf("volatile fields must be excluded: %v", got)
	}
	if len(prog.Methods()) != 1 {
		t.Error("Methods() wrong")
	}
}

// TestParseNestingLimit: expressions and blocks nest up to MaxNesting
// levels; one level more is an ordinary parse error, not a stack
// overflow.
func TestParseNestingLimit(t *testing.T) {
	n := MaxNesting
	cases := []struct {
		name string
		src  func(depth int) string
		// base is the nesting the rest of the program adds: the setup
		// block is one block level.
		base int
	}{
		{"parentheses", func(d int) string {
			return "setup { x = " + strings.Repeat("(", d) + "1" + strings.Repeat(")", d) + "; }"
		}, 0},
		{"prefix operators", func(d int) string {
			return "setup { y = 1; x = " + strings.Repeat("- ", d) + "y; }"
		}, 0},
		{"index brackets", func(d int) string {
			return "setup { a = newarray 1; x = " + strings.Repeat("a[", d) + "0" + strings.Repeat("]", d) + "; }"
		}, 0},
		{"blocks", func(d int) string {
			return "setup { " + strings.Repeat("if (true) { ", d) + strings.Repeat("} ", d) + "}"
		}, 1},
		{"loops", func(d int) string {
			return "setup { " + strings.Repeat("loop { if (true) break; ", d) + strings.Repeat("} ", d) + "}"
		}, 1},
		{"else-if chain", func(d int) string {
			// The first if's then-block and each else-if's then-block
			// add one level beyond the chain itself.
			return "setup { if (true) { } " + strings.Repeat("else if (true) { } ", d) + "}"
		}, 2},
	}
	for _, c := range cases {
		if _, err := Parse(c.src(n - c.base)); err != nil {
			t.Errorf("%s at the limit: %v", c.name, err)
		}
		_, err := Parse(c.src(n - c.base + 1))
		if err == nil || !strings.Contains(err.Error(), "nested deeper than") {
			t.Errorf("%s one past the limit: err = %v, want a nesting error", c.name, err)
		}
	}
}

// TestParseDeepParenthesesFails: 450k nested parentheses (about 900 KB,
// under bigfootd's request limit) once overflowed the parser's stack.
func TestParseDeepParenthesesFails(t *testing.T) {
	const d = 450000
	src := "setup { x = " + strings.Repeat("(", d) + "1" + strings.Repeat(")", d) + "; }"
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "expressions nested deeper than") {
		t.Fatalf("err = %v, want a nesting error", err)
	}
}
