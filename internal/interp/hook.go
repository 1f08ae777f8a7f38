package interp

import "bigfoot/internal/bfj"

// Hook receives every analysis-relevant event of an execution.  The
// callbacks run one at a time — on the thread coroutine that caused the
// event, or on Run's caller for the program-end joins and Finish — so
// implementations need no internal locking and observe a globally
// serialized event order.  A callback that panics ends the run: every
// thread is unwound and the panic reaches Run's caller.
//
// Raw access events (ReadField/WriteField/ReadIndex/WriteIndex) fire at
// each heap access of the target; Check events fire when the
// instrumented program executes a check(C) statement.  Per-access
// detectors (the oracle) consume the former; check-driven detectors
// (FastTrack through BigFoot) consume the latter.
//
// Access events carry the source position of the access statement and
// check events the position set their items cover (zero/nil for
// programmatically built ASTs) so detectors and trace recorders can
// attribute events to source lines.
type Hook interface {
	// Fork reports that parent started child (a happens-before edge
	// parent→child).  The static thread blocks are forked by the setup
	// thread (parent 0).
	Fork(parent, child int)
	// ThreadEnd reports that thread t ran to completion.
	ThreadEnd(t int)
	// Join reports that parent observed child's completion (an edge
	// child-end→parent).
	Join(parent, child int)

	Acquire(t int, lock *Object)
	Release(t int, lock *Object)
	VolRead(t int, o *Object, field string)
	VolWrite(t int, o *Object, field string)

	ReadField(t int, o *Object, field string, pos bfj.Pos)
	WriteField(t int, o *Object, field string, pos bfj.Pos)
	ReadIndex(t int, a *Array, i int, pos bfj.Pos)
	WriteIndex(t int, a *Array, i int, pos bfj.Pos)

	// CheckField reports an executed (possibly coalesced) field check.
	// The FieldCheck is the site's compile-time identity: the same
	// pointer fires on every execution of the same check item, so hooks
	// can cache per-site state against fc.Index.
	CheckField(t int, write bool, o *Object, fc *FieldCheck)
	// CheckRange reports an executed array range check [lo,hi):step.
	CheckRange(t int, write bool, a *Array, lo, hi, step int, poss []bfj.Pos)

	// Finish fires once after all threads have completed.
	Finish()
}

// NopHook ignores all events; embed it to implement partial hooks, or
// use it directly for uninstrumented base runs.
type NopHook struct{}

// Fork implements Hook.
func (NopHook) Fork(parent, child int) {}

// ThreadEnd implements Hook.
func (NopHook) ThreadEnd(t int) {}

// Join implements Hook.
func (NopHook) Join(parent, child int) {}

// Acquire implements Hook.
func (NopHook) Acquire(t int, lock *Object) {}

// Release implements Hook.
func (NopHook) Release(t int, lock *Object) {}

// VolRead implements Hook.
func (NopHook) VolRead(t int, o *Object, field string) {}

// VolWrite implements Hook.
func (NopHook) VolWrite(t int, o *Object, field string) {}

// ReadField implements Hook.
func (NopHook) ReadField(t int, o *Object, field string, pos bfj.Pos) {}

// WriteField implements Hook.
func (NopHook) WriteField(t int, o *Object, field string, pos bfj.Pos) {}

// ReadIndex implements Hook.
func (NopHook) ReadIndex(t int, a *Array, i int, pos bfj.Pos) {}

// WriteIndex implements Hook.
func (NopHook) WriteIndex(t int, a *Array, i int, pos bfj.Pos) {}

// CheckField implements Hook.
func (NopHook) CheckField(t int, write bool, o *Object, fc *FieldCheck) {}

// CheckRange implements Hook.
func (NopHook) CheckRange(t int, write bool, a *Array, lo, hi, step int, poss []bfj.Pos) {}

// Finish implements Hook.
func (NopHook) Finish() {}
