// Package footprint implements BigFoot's per-thread dynamic array
// footprints (§4): each array check contributes a strided range to the
// checking thread's footprint; at the thread's next synchronization
// operation the footprint is committed, performing the necessary
// shadow-location operations.  Dynamic footprinting coalesces checks
// that static analysis could not, preserving compressed shadow
// representations under irregular access patterns.
package footprint

import "bigfoot/internal/bfj"

// Entry is one pending strided-range check.  Pos is a representative
// source position: when range merging folds several checks into one
// entry, the first contributing check's position is kept (an
// approximation — the merged entry stands for many access sites, and
// the footprint deliberately does not retain per-element history).
type Entry struct {
	Lo, Hi, Step int
	Write        bool
	Pos          bfj.Pos
}

// Footprint accumulates pending checks for the arrays a thread has
// touched since its last synchronization operation, keyed by K: the
// array itself in the detector, a plain id in tests.
type Footprint[K comparable] struct {
	pending map[K][]Entry // array -> entries
	order   []K           // arrays in first-touch order (deterministic drain)
	// free holds the emptied entry slices of drained arrays, so a new
	// epoch's first touch of an array reuses one instead of growing a
	// slice from nil.
	free [][]Entry
	// last caches the most recently touched array (sequential access
	// runs hit the same array repeatedly).
	last   K
	lastEs []Entry
	// AppendOps counts footprint bookkeeping operations (the run-time
	// cost SlimState pays per access and BigFoot pays per coalesced
	// check).
	AppendOps uint64
}

// New returns an empty footprint.
func New[K comparable]() *Footprint[K] {
	return &Footprint[K]{pending: map[K][]Entry{}}
}

// Add records a pending check of [lo,hi):step on array a.
// Adjacent/duplicate ranges are merged opportunistically so
// per-element footprinting (the SlimState mode) stays compact; merges
// keep the existing entry's position (see Entry.Pos).
func (f *Footprint[K]) Add(a K, lo, hi, step int, write bool, pos bfj.Pos) {
	f.AppendOps++
	var es []Entry
	if f.lastEs != nil && f.last == a {
		es = f.lastEs
	} else {
		es = f.pending[a]
	}
	if n := len(es); n > 0 && step == 1 {
		last := &es[n-1]
		if last.Step == 1 && last.Write == write {
			// Extend a contiguous run (the common sequential pattern).
			if lo == last.Hi && hi > last.Hi {
				last.Hi = hi
				return
			}
			// Contained.
			if lo >= last.Lo && hi <= last.Hi {
				return
			}
		}
		// Extend a strided run: the new singleton continues the stride.
		// Only valid when last.Hi-1 is itself on the stride — for a range
		// like [0,6):2 (elements 0,2,4) the next element is 6, not
		// 5+step, and extending by Hi would claim indices never added.
		if last.Write == write && hi == lo+1 && last.Step > 1 &&
			(last.Hi-1-last.Lo)%last.Step == 0 && lo == last.Hi-1+last.Step {
			last.Hi = lo + 1
			return
		}
		// Detect a stride from two singletons.
		if last.Write == write && hi == lo+1 && last.Step == 1 && last.Hi == last.Lo+1 && lo > last.Lo {
			last.Step = lo - last.Lo
			last.Hi = lo + 1
			return
		}
	}
	if len(es) == 0 {
		f.order = append(f.order, a)
		if n := len(f.free); n > 0 {
			es = f.free[n-1]
			f.free = f.free[:n-1]
		}
	}
	es = append(es, Entry{Lo: lo, Hi: hi, Step: step, Write: write, Pos: pos})
	f.pending[a] = es
	f.last, f.lastEs = a, es
}

// Drain removes and returns all pending entries, invoking visit for
// each (array, entry) pair in first-touch order (deterministic).  The
// drained arrays leave the map; their entry slices go to the free list.
func (f *Footprint[K]) Drain(visit func(a K, e Entry)) {
	for _, a := range f.order {
		es := f.pending[a]
		for _, e := range es {
			visit(a, e)
		}
		delete(f.pending, a)
		f.free = append(f.free, es[:0])
	}
	f.order = f.order[:0]
	f.lastEs = nil
}

// Pending reports whether any checks are queued.
func (f *Footprint[K]) Pending() bool { return len(f.pending) > 0 }
