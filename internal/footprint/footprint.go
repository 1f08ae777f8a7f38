// Package footprint implements BigFoot's per-thread dynamic array
// footprints (§4): each array check contributes a strided range to the
// checking thread's footprint; at the thread's next synchronization
// operation the footprint is committed, performing the necessary
// shadow-location operations.  Dynamic footprinting coalesces checks
// that static analysis could not, preserving compressed shadow
// representations under irregular access patterns.
package footprint

import (
	"unsafe"

	"bigfoot/internal/bfj"
)

// Entry is one pending strided-range check.  It takes 32 bytes: Lo and
// Hi are int32, since the interpreter clamps a checked range to
// [0, len] and an array's length is at most interp.MaxHeapWords; Step
// stays an int, as race descriptions and dedup keys carry it as written.
// Pos is a representative source position: when range merging folds
// several checks into one entry, the first contributing check's
// position is kept (an approximation — the merged entry stands for many
// access sites, and the footprint deliberately does not retain
// per-element history).
type Entry struct {
	Lo, Hi int32
	Step   int
	Write  bool
	Pos    bfj.Pos32
}

// Footprint accumulates pending checks for the arrays a thread has
// touched since its last synchronization operation, keyed by K: the
// array itself in the detector, a plain id in tests.
//
// Each array touched in the current epoch owns a slot, numbered in
// first-touch order, and index maps the array to it; a new entry is an
// append to its slot's slice, with no map store.  A drain empties the
// slots in order and keeps their slices, so the next epoch's arrays
// reuse them.
type Footprint[K comparable] struct {
	index map[K]int // array -> slot, for the arrays of this epoch
	slots []slot[K] // slots[:n] are this epoch's, in first-touch order
	n     int
	// cur is the slot of the most recently touched array, or -1
	// (sequential access runs hit the same array repeatedly).
	cur int
	// AppendOps counts footprint bookkeeping operations (the run-time
	// cost SlimState pays per access and BigFoot pays per coalesced
	// check).
	AppendOps uint64
}

// slot holds one array's pending entries.
type slot[K comparable] struct {
	key K
	es  []Entry
}

// New returns an empty footprint.
func New[K comparable]() *Footprint[K] {
	return &Footprint[K]{index: map[K]int{}, cur: -1}
}

// Add records a pending check of [lo,hi):step on array a; lo and hi
// lie in [0, len(a)].  Adjacent/duplicate ranges are merged
// opportunistically so per-element footprinting (the SlimState mode)
// stays compact; merges keep the existing entry's position (see
// Entry.Pos).
func (f *Footprint[K]) Add(a K, lo, hi, step int, write bool, pos bfj.Pos) {
	f.AppendOps++
	i := f.cur
	if i < 0 || f.slots[i].key != a {
		i = f.slotOf(a)
		f.cur = i
	}
	sl := &f.slots[i]
	l, h := int32(lo), int32(hi)
	if n := len(sl.es); n > 0 && step == 1 {
		last := &sl.es[n-1]
		if last.Step == 1 && last.Write == write {
			// Extend a contiguous run (the common sequential pattern).
			if l == last.Hi && h > last.Hi {
				last.Hi = h
				return
			}
			// Contained.
			if l >= last.Lo && h <= last.Hi {
				return
			}
		}
		// Extend a strided run: the new singleton continues the stride.
		// Only valid when last.Hi-1 is itself on the stride — for a range
		// like [0,6):2 (elements 0,2,4) the next element is 6, not
		// 5+step, and extending by Hi would claim indices never added.
		if last.Write == write && h == l+1 && last.Step > 1 &&
			int(last.Hi-1-last.Lo)%last.Step == 0 && lo == int(last.Hi-1)+last.Step {
			last.Hi = l + 1
			return
		}
		// Detect a stride from two singletons.
		if last.Write == write && h == l+1 && last.Step == 1 && last.Hi == last.Lo+1 && l > last.Lo {
			last.Step = int(l - last.Lo)
			last.Hi = l + 1
			return
		}
	}
	sl.es = append(sl.es, Entry{Lo: l, Hi: h, Step: step, Write: write, Pos: pos.Pack()})
}

// slotOf returns a's slot, giving a the next one on its first touch in
// this epoch.
func (f *Footprint[K]) slotOf(a K) int {
	if i, ok := f.index[a]; ok {
		return i
	}
	i := f.n
	if i == len(f.slots) {
		f.slots = append(f.slots, slot[K]{})
	}
	f.slots[i].key = a
	f.index[a] = i
	f.n++
	return i
}

// Drain removes and returns all pending entries, invoking visit for
// each (array, entry) pair in first-touch order (deterministic).  The
// drained arrays leave the index; their slots keep their emptied
// slices for the next epoch.
func (f *Footprint[K]) Drain(visit func(a K, e Entry)) {
	var zero K
	for i := range f.slots[:f.n] {
		sl := &f.slots[i]
		for _, e := range sl.es {
			visit(sl.key, e)
		}
		delete(f.index, sl.key)
		sl.key, sl.es = zero, sl.es[:0] // drop the array, keep the storage
	}
	f.n, f.cur = 0, -1
}

// Pending reports whether any checks are queued.
func (f *Footprint[K]) Pending() bool { return f.n > 0 }

// HeldBytes reports the bytes the entry slices hold, spare capacity
// included.
func (f *Footprint[K]) HeldBytes() int {
	b := 0
	for _, sl := range f.slots {
		b += entryBytes * cap(sl.es)
	}
	return b
}

// entryBytes is the size of one Entry.
const entryBytes = int(unsafe.Sizeof(Entry{}))
