package interp

import (
	"context"
	"fmt"
	"io"
	"iter"
	"math/rand"

	"bigfoot/internal/bfj"
	"bigfoot/internal/vc"
)

// Options configures an execution.
type Options struct {
	// Seed drives the deterministic preemption schedule.
	Seed int64
	// MaxSteps aborts runaway executions. Default 500M.
	MaxSteps uint64
	// Out receives print statement output (nil discards it).
	Out io.Writer
}

// sliceMin and sliceMax bound the number of statements a thread runs
// between preemption points.
const sliceMin, sliceMax = 20, 120

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = 500_000_000
	}
	return o
}

// Counters are the deterministic execution metrics.
type Counters struct {
	Steps         uint64
	ReadAccesses  uint64
	WriteAccesses uint64
	CheckItems    uint64 // executed check items (coalesced counts once)
	SyncOps       uint64
	BaseWords     uint64 // allocated program data, in value words
	Threads       int
}

// Accesses returns total heap accesses.
func (c Counters) Accesses() uint64 { return c.ReadAccesses + c.WriteAccesses }

// Thread is one BFJ thread of control.  It runs as a coroutine: the
// scheduler resumes it with next, and it hands control back through
// yield when its slice expires or it blocks.  stop unwinds it while it
// is suspended (or before it ever ran).
type Thread struct {
	ID   int
	done bool

	in    *Interp
	cur   frame // current (top) frame
	depth int   // call depth

	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// stack holds the frames of the thread's active calls; sp is its
	// first free slot (see push).
	stack []Value
	sp    int

	// Block conditions (at most one non-nil/zero at a time).
	waitLock *Object
	waitJoin *Thread

	budget int
}

// frame is a compiled body's variable storage, indexed by slot.
type frame = []Value

// Compiled is an immutable compilation artifact: the program's setup,
// thread, and method bodies lowered to slot-addressed closure trees.
// It is goroutine-safe — a single Compiled may back any number of
// concurrent Run calls (across trials, seeds, and detector hooks), so
// a program is compiled once per instrumentation variant rather than
// once per execution.
type Compiled struct {
	prog    *bfj.Program
	setup   *compiledBody
	threads []*compiledBody
}

// Program returns the source AST the artifact was compiled from.
func (c *Compiled) Program() *bfj.Program { return c.prog }

// Compile lowers the program into a reusable execution artifact.  It
// reports static errors that need no execution to detect (currently:
// instantiating an unknown class).  The returned artifact must not be
// mutated; the program AST it references must not be mutated either.
func Compile(prog *bfj.Program) (c *Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileErr); ok {
				c, err = nil, fmt.Errorf("compile: %s", ce.msg)
				return
			}
			panic(r)
		}
	}()
	cp := &compiler{
		prog:    prog,
		targets: map[string][]target{},
		fields:  map[string][]fieldSlot{},
	}
	// Every method's body exists before any body is compiled, so call
	// sites can resolve to methods compiled after them.  bodies follows
	// prog.Methods() order.
	var bodies []*compiledBody
	for _, cl := range prog.Classes {
		for i, f := range cl.Fields {
			cp.fields[f.Name] = append(cp.fields[f.Name], fieldSlot{class: cl, index: i, vol: f.Volatile})
		}
		for _, m := range cl.Methods {
			cb := &compiledBody{}
			bodies = append(bodies, cb)
			cp.targets[m.Name] = append(cp.targets[m.Name], target{class: cl, m: m, body: cb})
		}
	}
	for i, m := range prog.Methods() {
		cp.compileMethod(m, bodies[i])
	}
	out := &Compiled{
		prog:  prog,
		setup: cp.compileBody(prog.Setup),
	}
	for _, b := range prog.Threads {
		out.threads = append(out.threads, cp.compileBody(b))
	}
	return out, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(prog *bfj.Program) *Compiled {
	c, err := Compile(prog)
	if err != nil {
		panic(err)
	}
	return c
}

// Interp executes one program.
type Interp struct {
	compiled *Compiled
	hook     Hook
	opts     Options
	C        Counters

	// ctx cancels the run: the scheduler polls it between time slices
	// and returns ctx.Err(); run then unwinds every thread coroutine.
	ctx      context.Context
	rng      *rand.Rand
	threads  []*Thread
	runnable []*Thread // scratch for schedule, reused every slice

	nextObjID int
	nextArrID int

	// err is the runtime error that ended a thread, and with it the run.
	err error
}

// ErrStepLimit is wrapped by the error a run returns when it exceeds
// Options.MaxSteps, so callers can classify budget exhaustion
// (errors.Is) without string matching.
var ErrStepLimit = fmt.Errorf("step limit exceeded")

type runtimeErr struct{ msg string }

// abortSignal unwinds a suspended thread when the run ends before it.
type abortSignal struct{}

func fail(format string, args ...any) {
	panic(runtimeErr{fmt.Sprintf(format, args...)})
}

// Run executes the compiled program under the hook and returns the
// execution counters.  The error reports runtime failures (null
// dereference, out-of-bounds, assertion failure, deadlock, step-limit
// exceeded).  Run is safe to call concurrently on the same artifact:
// each call builds its own interpreter state.
func (c *Compiled) Run(hook Hook, opts Options) (Counters, error) {
	return c.RunContext(context.Background(), hook, opts)
}

// RunContext is Run under a context: cancellation (or a deadline) stops
// the execution at the next scheduling point, unwinds every thread
// coroutine, and returns the partial counters alongside ctx.Err().  A
// context that can never be cancelled (Done() == nil) adds no work to
// the scheduler loop.
//
// A panic in a hook callback unwinds every thread coroutine and then
// propagates to the caller of Run or RunContext.
func (c *Compiled) RunContext(ctx context.Context, hook Hook, opts Options) (Counters, error) {
	in := &Interp{
		compiled: c,
		hook:     hook,
		opts:     opts.withDefaults(),
		ctx:      ctx,
		rng:      rand.New(rand.NewSource(opts.Seed)),
	}
	err := in.run()
	in.C.Threads = len(in.threads)
	return in.C, err
}

// Run compiles and executes the program in one call — the convenience
// path for single executions.  Repeated runs of the same program should
// Compile once and reuse the artifact.
func Run(prog *bfj.Program, hook Hook, opts Options) (Counters, error) {
	c, err := Compile(prog)
	if err != nil {
		return Counters{}, err
	}
	return c.Run(hook, opts)
}

func (in *Interp) run() error {
	// Every early end — step limit, deadlock, a runtime error, ctx
	// cancellation, a panicking hook — leaves suspended coroutines
	// behind; stopping them here unwinds them all.
	defer func() {
		for _, t := range in.threads {
			t.stop()
		}
	}()
	// Thread 0 executes the setup block and then forks the program's
	// static thread blocks, which capture its environment bindings.
	setupCB := in.compiled.setup
	threadCBs := in.compiled.threads
	in.newThread(setupCB.newFrame(), func(t0 *Thread) {
		setupCB.run(t0)
		base := t0.cur
		for _, cb := range threadCBs {
			env := cb.newFrame()
			// Capture by value: every variable the thread mentions that
			// setup defined is copied into the thread's frame.
			for v, slot := range cb.sc.slots {
				if src, ok := setupCB.sc.slots[v]; ok {
					env[slot] = base[src]
				}
			}
			nt := in.newThread(env, cb.run)
			in.C.SyncOps++
			in.hook.Fork(t0.ID, nt.ID)
		}
	})

	if err := in.schedule(); err != nil {
		return err
	}
	if in.err != nil {
		return in.err
	}
	// Program end: the runtime observes every thread's completion.
	for _, t := range in.threads[1:] {
		in.hook.Join(0, t.ID)
	}
	in.hook.Finish()
	return nil
}

// newThread registers a thread that will run body as a coroutine; it
// runs only when the scheduler resumes it.  Thread ids are bounded by
// vc.MaxThreads: epochs pack the id into 8 bits, so a run that forked
// more threads would silently alias shadow state across threads (missed
// and false races).  Exceeding the bound is a runtime error, reported
// through the normal fail path of the forking thread.
func (in *Interp) newThread(env frame, body func(*Thread)) *Thread {
	if len(in.threads) >= vc.MaxThreads {
		fail("thread limit exceeded: fork would create thread %d, but epochs pack thread ids into %d values (vc.MaxThreads); more threads would alias race-detector shadow state",
			len(in.threads), vc.MaxThreads)
	}
	t := &Thread{ID: len(in.threads), in: in, cur: env}
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		defer func() {
			t.done = true
			switch r := recover().(type) {
			case nil:
				in.hook.ThreadEnd(t.ID)
			case runtimeErr:
				in.err = fmt.Errorf("thread %d: %s", t.ID, r.msg)
			case abortSignal:
				// stopped while suspended
			default:
				panic(r)
			}
		}()
		body(t)
	})
	in.threads = append(in.threads, t)
	return t
}

// schedule resumes one runnable thread per time slice until all threads
// finish or the run ends early.
func (in *Interp) schedule() error {
	var done <-chan struct{}
	if in.ctx != nil {
		done = in.ctx.Done()
	}
	for {
		if done != nil {
			select {
			case <-done:
				return in.ctx.Err()
			default:
			}
		}
		if in.C.Steps > in.opts.MaxSteps {
			return fmt.Errorf("%w (%d)", ErrStepLimit, in.opts.MaxSteps)
		}
		runnable := in.runnable[:0]
		alive := false
		for _, t := range in.threads {
			if t.done {
				continue
			}
			alive = true
			if in.isRunnable(t) {
				runnable = append(runnable, t)
			}
		}
		in.runnable = runnable
		if !alive {
			return nil
		}
		if in.err != nil {
			return in.err
		}
		if len(runnable) == 0 {
			return fmt.Errorf("deadlock: all live threads are blocked")
		}
		t := runnable[in.rng.Intn(len(runnable))]
		t.budget = sliceMin + in.rng.Intn(sliceMax-sliceMin+1)
		t.next()
	}
}

func (in *Interp) isRunnable(t *Thread) bool {
	if t.waitLock != nil {
		return t.waitLock.lockOwner == nil || t.waitLock.lockOwner == t
	}
	if t.waitJoin != nil {
		return t.waitJoin.done
	}
	return true
}

// step charges one execution step and preempts when the slice expires.
func (in *Interp) step(t *Thread) {
	in.C.Steps++
	t.budget--
	if t.budget <= 0 {
		in.yield(t)
	}
}

// yield suspends t until the scheduler resumes it, or unwinds it when
// the run ends first.  It stays out of line so that step, which runs
// on every statement, inlines.
//
//go:noinline
func (in *Interp) yield(t *Thread) {
	if !t.yield(struct{}{}) {
		panic(abortSignal{})
	}
}

// countAccess counts a worker heap access.  Thread 0 (setup and
// orchestration) is never counted, so check ratios measure the
// workload's worker threads, as the paper measures the target workload
// rather than harness code.
func (in *Interp) countAccess(t *Thread, write bool) {
	if t.ID == 0 {
		return
	}
	if write {
		in.C.WriteAccesses++
	} else {
		in.C.ReadAccesses++
	}
}

func (in *Interp) countCheck(t *Thread) {
	if t.ID == 0 {
		return
	}
	in.C.CheckItems++
}

// block parks the thread until its wait condition clears.
func (in *Interp) block(t *Thread) {
	in.yield(t)
}
