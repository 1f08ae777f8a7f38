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
// touched since its last synchronization operation.
type Footprint struct {
	pending map[int][]Entry // array id -> entries
	order   []int           // array ids in first-touch order (deterministic drain)
	// free holds the emptied entry slices of drained arrays, so a new
	// epoch's first touch of an array reuses one instead of growing a
	// slice from nil.
	free [][]Entry
	// lastID caches the most recently touched array (sequential access
	// runs hit the same array repeatedly).
	lastID int
	lastEs []Entry
	// AppendOps counts footprint bookkeeping operations (the run-time
	// cost SlimState pays per access and BigFoot pays per coalesced
	// check).
	AppendOps uint64
}

// New returns an empty footprint.
func New() *Footprint {
	return &Footprint{pending: map[int][]Entry{}}
}

// Add records a pending check of [lo,hi):step on the array with the
// given id.  Adjacent/duplicate ranges are merged opportunistically so
// per-element footprinting (the SlimState mode) stays compact; merges
// keep the existing entry's position (see Entry.Pos).
func (f *Footprint) Add(arrayID int, lo, hi, step int, write bool, pos bfj.Pos) {
	f.AppendOps++
	var es []Entry
	if f.lastEs != nil && f.lastID == arrayID {
		es = f.lastEs
	} else {
		es = f.pending[arrayID]
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
		f.order = append(f.order, arrayID)
		if n := len(f.free); n > 0 {
			es = f.free[n-1]
			f.free = f.free[:n-1]
		}
	}
	es = append(es, Entry{Lo: lo, Hi: hi, Step: step, Write: write, Pos: pos})
	f.pending[arrayID] = es
	f.lastID, f.lastEs = arrayID, es
}

// Drain removes and returns all pending entries, invoking visit for
// each (arrayID, entry) pair in first-touch order (deterministic).  The
// drained arrays leave the map; their entry slices go to the free list.
func (f *Footprint) Drain(visit func(arrayID int, e Entry)) {
	for _, id := range f.order {
		es := f.pending[id]
		for _, e := range es {
			visit(id, e)
		}
		delete(f.pending, id)
		f.free = append(f.free, es[:0])
	}
	f.order = f.order[:0]
	f.lastEs = nil
}

// Pending reports whether any checks are queued.
func (f *Footprint) Pending() bool { return len(f.pending) > 0 }

// Arrays returns the ids of arrays with pending entries in first-touch
// order.
func (f *Footprint) Arrays() []int {
	return append([]int(nil), f.order...)
}

// Entries returns the pending entries for one array, valid until the
// next Drain.
func (f *Footprint) Entries(arrayID int) []Entry { return f.pending[arrayID] }
