package interp

import (
	"fmt"

	"bigfoot/internal/bfj"
	"bigfoot/internal/expr"
)

// This file implements the closure-compilation layer: each body (setup,
// thread block, or method) is compiled once into a tree of closures
// over integer variable slots, replacing per-statement AST dispatch and
// per-variable map lookups.  Names are resolved at compile time too: a
// call or fork site carries the classes that declare its method name,
// and a field access site the classes that declare its field, so run
// time only compares the receiver's class pointer.  This keeps base
// interpretation fast enough that detector work dominates measured
// overheads, as it does on the paper's JVM testbed.  Expressions compile
// for the type their consumer needs (typed.go).
//
// Compilation is a separate stage from execution: the closures never
// capture the executing Interp.  All run-time state (counters, hook,
// scheduler, heap IDs) is reached through the thread's interpreter
// (t.in), so one Compiled artifact can back any number of concurrent
// executions.

// kindUndef marks an unassigned local slot; it is deliberately NOT the
// zero ValueKind (fields and array elements default to integer 0, but
// reading an unassigned local is a runtime error).
const kindUndef ValueKind = 99

var undefValue = Value{Kind: kindUndef}

// cstmt executes one compiled statement on a thread.
type cstmt func(t *Thread)

// cexpr evaluates one compiled expression.
type cexpr func(t *Thread) Value

// scope assigns frame slots to the variables of one body.
type scope struct {
	slots map[expr.Var]int
}

func (sc *scope) slot(v expr.Var) int {
	if i, ok := sc.slots[v]; ok {
		return i
	}
	i := len(sc.slots)
	sc.slots[v] = i
	return i
}

// compiledBody is a compiled block plus its variable layout.
type compiledBody struct {
	stmts []cstmt
	sc    *scope
	// ret is a method's return slot, -1 when it returns nothing.  A
	// returned variable the body never mentions reads slot 0 ("this").
	ret int
}

// newFrame allocates a frame that outlives its creator's call: the
// root frame of a thread.
func (cb *compiledBody) newFrame() []Value {
	f := make([]Value, len(cb.sc.slots))
	for i := range f {
		f[i] = undefValue
	}
	return f
}

// run executes the body on t's current frame.
func (cb *compiledBody) run(t *Thread) {
	for _, s := range cb.stmts {
		s(t)
	}
}

// target is one class's implementation of a method name, the run-time
// resolution of a call or fork site whose receiver has that class.
type target struct {
	class *bfj.Class
	m     *bfj.Method
	body  *compiledBody
}

// fieldSlot is one class's storage for a field name: its index into
// Object.fields and its volatility in that class.
type fieldSlot struct {
	class *bfj.Class
	index int
	vol   bool
}

// compiler builds a Compiled artifact.  It is used single-threaded
// during Compile; the tables it fills are read-only afterwards and
// therefore safe to share across executions.
type compiler struct {
	prog *bfj.Program

	// targets and fields map a method or field name to every class
	// declaring it, in declaration order, so the first match of a
	// receiver's class is that class's first declaration of the name,
	// the one LookupMethod finds for a method.
	targets map[string][]target
	fields  map[string][]fieldSlot

	// fieldChecks numbers the field-check sites so each FieldCheck
	// carries a dense, per-artifact index (see FieldCheck.Index).
	fieldChecks int
}

// compileErr aborts compilation with a static error.
type compileErr struct{ msg string }

func cfail(format string, args ...any) {
	panic(compileErr{fmt.Sprintf(format, args...)})
}

// compileBody compiles a block with a fresh scope.
func (c *compiler) compileBody(b *bfj.Block) *compiledBody {
	sc := &scope{slots: map[expr.Var]int{}}
	stmts := c.compileBlock(b, sc)
	return &compiledBody{stmts: stmts, sc: sc, ret: -1}
}

// compileMethod compiles a method body into cb with its parameter
// slots laid out first.
func (c *compiler) compileMethod(m *bfj.Method, cb *compiledBody) {
	cb.sc = &scope{slots: map[expr.Var]int{}}
	for _, p := range m.Params {
		cb.sc.slot(p)
	}
	cb.stmts = c.compileBlock(m.Body, cb.sc)
	cb.ret = -1
	if m.Ret != "" {
		cb.ret = cb.sc.slots[m.Ret]
	}
}

func (c *compiler) compileBlock(b *bfj.Block, sc *scope) []cstmt {
	out := make([]cstmt, 0, len(b.Stmts))
	for _, s := range b.Stmts {
		out = append(out, c.compileStmt(s, sc))
	}
	return out
}

// run-time accessors ------------------------------------------------------
//
// The accessors are small enough to inline into the closures; their
// failure paths format the error out of line.

func (t *Thread) slotGet(i int) Value {
	v := t.cur[i]
	if v.Kind == kindUndef {
		failUnassigned(i)
	}
	return v
}

func (t *Thread) slotSet(i int, v Value) {
	t.cur[i] = v
}

// getObj and getArr check the kind and convert the reference
// themselves: calling Value.Obj or Value.Arr after the check would put
// them over the compiler's inlining budget.

func getObj(t *Thread, slot int, what string) *Object {
	v := t.cur[slot]
	if v.Kind != KindObject {
		failNotA(t, slot, what, "an object")
	}
	return (*Object)(v.p)
}

func getArr(t *Thread, slot int, what string) *Array {
	v := t.cur[slot]
	if v.Kind != KindArray {
		failNotA(t, slot, what, "an array")
	}
	return (*Array)(v.p)
}

func asInt(v Value, what fmt.Stringer) int64 {
	if v.Kind != KindInt {
		failExpected("integer", v, what)
	}
	return v.I
}

func asBool(v Value, what fmt.Stringer) bool {
	if v.Kind != KindBool {
		failExpected("boolean", v, what)
	}
	return v.I != 0
}

//go:noinline
func failUnassigned(slot int) {
	fail("read of unassigned variable (slot %d)", slot)
}

// failNotA reports a slot that holds no value of the wanted kind: it is
// unassigned, or holds another kind.
//
//go:noinline
func failNotA(t *Thread, slot int, what, kind string) {
	fail("%s is not %s (it is %s)", what, kind, t.slotGet(slot))
}

//go:noinline
func failExpected(kind string, v Value, what fmt.Stringer) {
	fail("expected %s, got %s in %s", kind, v, what)
}

// method resolves a call or fork site's targets against the receiver's
// class and checks the site's argument count.
func method(targets []target, o *Object, name string, nargs int) *target {
	for i := range targets {
		if tg := &targets[i]; tg.class == o.Class {
			if len(tg.m.Params) != nargs+1 {
				fail("method %s expects %d args, got %d", tg.m.QualifiedName(), len(tg.m.Params)-1, nargs)
			}
			return tg
		}
	}
	fail("class %s has no method %s", o.Class.Name, name)
	return nil
}

// field resolves a field access site's slots against o's class: the
// index into o.fields and the field's volatility there, or -1 when the
// class does not declare the field (it then lives in o.extra and is
// never volatile).
func field(slots []fieldSlot, o *Object) (int, bool) {
	for i := range slots {
		if fs := &slots[i]; fs.class == o.Class {
			return fs.index, fs.vol
		}
	}
	return -1, false
}

func (o *Object) get(i int, name string) Value {
	if i >= 0 {
		return o.fields[i]
	}
	return o.extra[name]
}

func (o *Object) set(i int, name string, v Value) {
	if i >= 0 {
		o.fields[i] = v
		return
	}
	if o.extra == nil {
		o.extra = map[string]Value{}
	}
	o.extra[name] = v
}

// push returns a fresh n-slot frame on top of t's call stack, every
// slot unassigned.  The caller pops it by restoring t.sp.  Growing the
// stack starts a new array rather than copying: live frames stay where
// they are, in the old array their callers still reference.
func (t *Thread) push(n int) []Value {
	end := t.sp + n
	if end > len(t.stack) {
		t.stack = make([]Value, max(2*len(t.stack), end, 64))
	}
	f := t.stack[t.sp:end:end]
	t.sp = end
	for i := range f {
		f[i] = undefValue
	}
	return f
}

// MaxHeapWords bounds the program data one run may allocate, in value
// words as Counters.BaseWords counts them: 384 MiB of 24-byte values.
// A newarray or new that would pass it fails as a runtime error before
// it allocates, where an unbounded size would kill the process.  The
// largest workload allocates 114,657 words at scale 1 and grows about
// linearly with the scale factor, so the bound leaves ~146× headroom.
const MaxHeapWords = 1 << 24

// charge adds words of program data to the run's allocation, failing
// first when the total would pass MaxHeapWords.
func (in *Interp) charge(words uint64) {
	if words > MaxHeapWords-in.C.BaseWords {
		failHeap(words, in.C.BaseWords)
	}
	in.C.BaseWords += words
}

//go:noinline
func failHeap(words, used uint64) {
	fail("allocation of %d words would take the run's heap past %d words (interp.MaxHeapWords; %d in use)", words, MaxHeapWords, used)
}

// statement compilation ---------------------------------------------------

func (c *compiler) compileStmt(s bfj.Stmt, sc *scope) cstmt {
	switch x := s.(type) {
	case *bfj.Assign:
		return c.compileAssign(x, sc)
	case *bfj.Rename:
		// A rename copies the raw slot, including the unassigned marker:
		// pass 0 inserts renames flow-insensitively, so on a path where
		// the source was never assigned the copy simply propagates
		// "unassigned" (no fact about the source can be in the history on
		// such a path, so no check ever reads the copy there).
		dst := sc.slot(x.X)
		src := sc.slot(x.Y)
		return func(t *Thread) {
			t.in.step(t)
			t.slotSet(dst, t.cur[src])
		}
	case *bfj.New:
		dst := sc.slot(x.X)
		cls := c.prog.LookupClass(x.Class)
		if cls == nil {
			cfail("unknown class %s", x.Class)
		}
		nf := len(cls.Fields)
		return func(t *Thread) {
			in := t.in
			in.step(t)
			in.charge(uint64(nf) + 1)
			o := &Object{ID: in.nextObjID, Class: cls, fields: make([]Value, nf)}
			in.nextObjID++
			t.slotSet(dst, objVal(o))
		}
	case *bfj.NewArray:
		dst := sc.slot(x.X)
		size := c.compileInt(x.Size, sc, x.Size)
		return func(t *Thread) {
			in := t.in
			in.step(t)
			n := size(t)
			if n < 0 {
				fail("newarray with negative size %d", n)
			}
			in.charge(uint64(n) + 1)
			a := &Array{ID: in.nextArrID, Elems: make([]Value, n)}
			in.nextArrID++
			t.slotSet(dst, arrVal(a))
		}
	case *bfj.FieldRead:
		dst := sc.slot(x.X)
		obj := sc.slot(x.Y)
		name, slots, pos := x.F, c.fields[x.F], x.Pos
		return func(t *Thread) {
			in := t.in
			in.step(t)
			o := getObj(t, obj, string(x.Y))
			i, vol := field(slots, o)
			if vol {
				in.C.SyncOps++
				in.hook.VolRead(t.ID, o, name)
			} else {
				in.countAccess(t, false)
				in.hook.ReadField(t.ID, o, name, pos)
			}
			t.slotSet(dst, o.get(i, name))
		}
	case *bfj.FieldWrite:
		obj := sc.slot(x.Y)
		name, slots, pos := x.F, c.fields[x.F], x.Pos
		e := c.compileExpr(x.E, sc)
		return func(t *Thread) {
			in := t.in
			in.step(t)
			o := getObj(t, obj, string(x.Y))
			v := e(t)
			i, vol := field(slots, o)
			if vol {
				in.C.SyncOps++
				in.hook.VolWrite(t.ID, o, name)
			} else {
				in.countAccess(t, true)
				in.hook.WriteField(t.ID, o, name, pos)
			}
			o.set(i, name, v)
		}
	case *bfj.ArrayRead:
		dst := sc.slot(x.X)
		arr := sc.slot(x.Y)
		idx := c.compileInt(x.Z, sc, x.Z)
		pos := x.Pos
		return func(t *Thread) {
			in := t.in
			in.step(t)
			a := getArr(t, arr, string(x.Y))
			i := idx(t)
			if i < 0 || i >= int64(len(a.Elems)) {
				fail("array read out of bounds: index %d, length %d", i, len(a.Elems))
			}
			in.countAccess(t, false)
			in.hook.ReadIndex(t.ID, a, int(i), pos)
			t.slotSet(dst, a.Elems[i])
		}
	case *bfj.ArrayWrite:
		arr := sc.slot(x.Y)
		idx := c.compileInt(x.Z, sc, x.Z)
		e := c.compileExpr(x.E, sc)
		pos := x.Pos
		return func(t *Thread) {
			in := t.in
			in.step(t)
			a := getArr(t, arr, string(x.Y))
			i := idx(t)
			v := e(t)
			if i < 0 || i >= int64(len(a.Elems)) {
				fail("array write out of bounds: index %d, length %d", i, len(a.Elems))
			}
			in.countAccess(t, true)
			in.hook.WriteIndex(t.ID, a, int(i), pos)
			a.Elems[i] = v
		}
	case *bfj.Acquire:
		lock := sc.slot(x.L)
		return func(t *Thread) {
			in := t.in
			in.step(t)
			o := getObj(t, lock, string(x.L))
			for o.lockOwner != nil && o.lockOwner != t {
				t.waitLock = o
				in.block(t)
			}
			t.waitLock = nil
			o.lockOwner = t
			o.lockDepth++
			in.C.SyncOps++
			in.hook.Acquire(t.ID, o)
		}
	case *bfj.Release:
		lock := sc.slot(x.L)
		return func(t *Thread) {
			in := t.in
			in.step(t)
			o := getObj(t, lock, string(x.L))
			if o.lockOwner != t {
				fail("release of lock not held (object #%d)", o.ID)
			}
			in.C.SyncOps++
			in.hook.Release(t.ID, o)
			o.lockDepth--
			if o.lockDepth == 0 {
				o.lockOwner = nil
			}
		}
	case *bfj.If:
		cond := c.compileBool(x.Cond, sc, x.Cond)
		then := c.compileBlock(x.Then, sc)
		els := c.compileBlock(x.Else, sc)
		return func(t *Thread) {
			t.in.step(t)
			if cond(t) {
				for _, s := range then {
					s(t)
				}
			} else {
				for _, s := range els {
					s(t)
				}
			}
		}
	case *bfj.Loop:
		pre := c.compileBlock(x.Pre, sc)
		cond := c.compileBool(x.Cond, sc, x.Cond)
		post := c.compileBlock(x.Post, sc)
		return func(t *Thread) {
			for {
				for _, s := range pre {
					s(t)
				}
				t.in.step(t)
				if cond(t) {
					return
				}
				for _, s := range post {
					s(t)
				}
			}
		}
	case *bfj.Call:
		return c.compileCall(x, sc)
	case *bfj.Fork:
		return c.compileFork(x, sc)
	case *bfj.Join:
		h := sc.slot(x.X)
		return func(t *Thread) {
			in := t.in
			in.step(t)
			v := t.slotGet(h)
			if v.Kind != KindThread {
				fail("join target is not a thread handle")
			}
			th := v.Th()
			for !th.done {
				t.waitJoin = th
				in.block(t)
			}
			t.waitJoin = nil
			in.C.SyncOps++
			in.hook.Join(t.ID, th.ID)
		}
	case *bfj.Check:
		return c.compileCheck(x, sc)
	case *bfj.Print:
		args := make([]cexpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.compileExpr(a, sc)
		}
		return func(t *Thread) {
			in := t.in
			in.step(t)
			if in.opts.Out == nil {
				for _, a := range args {
					a(t)
				}
				return
			}
			for i, a := range args {
				if i > 0 {
					fmt.Fprint(in.opts.Out, " ")
				}
				fmt.Fprint(in.opts.Out, a(t))
			}
			fmt.Fprintln(in.opts.Out)
		}
	case *bfj.Assert:
		cond := c.compileBool(x.Cond, sc, x.Cond)
		return func(t *Thread) {
			t.in.step(t)
			if !cond(t) {
				fail("assertion failed: %s", x.Cond)
			}
		}
	}
	return func(t *Thread) { fail("unknown statement %T", s) }
}

// compileCall compiles y.m(args): the callee's frame comes from the
// calling thread's stack and is popped when the body returns.
func (c *compiler) compileCall(x *bfj.Call, sc *scope) cstmt {
	recv := sc.slot(x.Y)
	args := make([]cexpr, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.compileExpr(a, sc)
	}
	dst := -1
	if x.X != "" {
		dst = sc.slot(x.X)
	}
	name, targets := x.M, c.targets[x.M]
	return func(t *Thread) {
		t.in.step(t)
		o := getObj(t, recv, string(x.Y))
		tg := method(targets, o, name, len(args))
		cb := tg.body
		sp := t.sp
		frame := t.push(len(cb.sc.slots))
		frame[0] = objVal(o) // "this" is slot 0
		for i, a := range args {
			frame[i+1] = a(t)
		}
		if t.depth > 512 {
			fail("call stack overflow in %s", tg.m.QualifiedName())
		}
		saved := t.cur
		t.cur = frame
		t.depth++
		cb.run(t)
		var ret Value
		if cb.ret >= 0 {
			ret = t.slotGet(cb.ret)
		}
		t.depth--
		t.cur = saved
		t.sp = sp
		if dst >= 0 {
			t.slotSet(dst, ret)
		}
	}
}

// compileFork compiles h = fork y.m(args).  The new thread's root frame
// is its own: the forking thread's stack is reused as soon as it
// returns.
func (c *compiler) compileFork(x *bfj.Fork, sc *scope) cstmt {
	recv := sc.slot(x.Y)
	args := make([]cexpr, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.compileExpr(a, sc)
	}
	dst := sc.slot(x.X)
	name, targets := x.M, c.targets[x.M]
	return func(t *Thread) {
		in := t.in
		in.step(t)
		o := getObj(t, recv, string(x.Y))
		cb := method(targets, o, name, len(args)).body
		frame := cb.newFrame()
		frame[0] = objVal(o)
		for i, a := range args {
			frame[i+1] = a(t)
		}
		nt := in.newThread(frame, cb.run)
		in.C.SyncOps++
		in.hook.Fork(t.ID, nt.ID)
		t.slotSet(dst, thVal(nt))
	}
}

func (c *compiler) compileCheck(x *bfj.Check, sc *scope) cstmt {
	type citem struct {
		write bool
		field bool
		base  int
		fc    *FieldCheck
		rng   checkRange
		poss  []bfj.Pos
	}
	items := make([]citem, 0, len(x.Items))
	for _, it := range x.Items {
		ci := citem{write: it.Kind == bfj.Write, poss: it.Positions}
		switch p := it.Path.(type) {
		case expr.FieldPath:
			ci.field = true
			ci.base = sc.slot(p.Base)
			ci.fc = &FieldCheck{Index: c.fieldChecks, Fields: p.Fields, Poss: it.Positions}
			c.fieldChecks++
		case expr.ArrayPath:
			ci.base = sc.slot(p.Base)
			ci.rng = c.compileRange(p.Range, sc, p)
		}
		items = append(items, ci)
	}
	return func(t *Thread) {
		in := t.in
		in.step(t)
		for i := range items {
			ci := &items[i]
			if ci.field {
				o := getObj(t, ci.base, "check designator")
				in.countCheck(t)
				in.hook.CheckField(t.ID, ci.write, o, ci.fc)
				continue
			}
			a := getArr(t, ci.base, "check designator")
			n := int64(a.Len())
			var lo, hi, step int64
			var ok bool
			if ci.rng.single {
				// lo..lo+1:1 clamped: the element itself, or nothing (also
				// for lo = MaxInt64, where lo+1 wraps).
				if lo = ci.rng.lo(t); lo < 0 || lo >= n {
					continue
				}
				hi, step = lo+1, 1
			} else if lo, hi, step, ok = ci.rng.span(t, n); !ok {
				continue
			}
			in.countCheck(t)
			in.hook.CheckRange(t.ID, ci.write, a, int(lo), int(hi), int(step), ci.poss)
		}
	}
}

// compileAssign compiles x = e: an operator's typed result and a
// literal are stored without a Value-returning closure.
func (c *compiler) compileAssign(x *bfj.Assign, sc *scope) cstmt {
	dst := sc.slot(x.X)
	if v, ok := literal(x.E); ok {
		return func(t *Thread) {
			t.in.step(t)
			t.slotSet(dst, v)
		}
	}
	switch kindOf(x.E) {
	case KindInt:
		e := c.compileInt(x.E, sc, x.E)
		return func(t *Thread) {
			t.in.step(t)
			t.slotSet(dst, IntVal(e(t)))
		}
	case KindBool:
		e := c.compileBool(x.E, sc, x.E)
		return func(t *Thread) {
			t.in.step(t)
			t.slotSet(dst, BoolVal(e(t)))
		}
	}
	e := c.compileExpr(x.E, sc)
	return func(t *Thread) {
		t.in.step(t)
		t.slotSet(dst, e(t))
	}
}
