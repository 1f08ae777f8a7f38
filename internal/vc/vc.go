// Package vc implements the vector clocks and epochs used by precise
// dynamic race detectors.  An epoch c@t packs a thread id and a scalar
// clock into one word — FastTrack's key representation trick — while
// full vector clocks remain available for read-shared histories and for
// the DJIT+-style oracle.
package vc

import "fmt"

// MaxThreads bounds the thread-id component of an epoch: ids occupy the
// low 8 bits of the packed word.  The interpreter refuses to fork a
// thread with id ≥ MaxThreads (see interp.newThread), so detectors
// never see an id the epoch encoding cannot represent.
const MaxThreads = 1 << 8

// Epoch is a packed clock@tid pair.  The zero value is the bottom epoch
// (never happens-before-related to anything, reads/writes at clock 0 of
// thread 0 start at clock 1).
type Epoch uint64

// MakeEpoch packs clock c of thread t.  Callers must ensure
// t < MaxThreads (the interpreter enforces this at fork time); the mask
// here is defense in depth, not an invitation to alias ids.
//
// Bit 63 of an epoch is clear while c < 2^55.  Shadow states rely on
// it: a read-shared state tags its read word with bit 63 (see
// shadow.State), so that word never equals an epoch.  A clock ticks
// once per synchronization operation, so a run would need 2^55 of them
// to reach the bit.
func MakeEpoch(t int, c uint64) Epoch {
	return Epoch(c<<8 | uint64(t&0xff))
}

// TID returns the thread id.
func (e Epoch) TID() int { return int(e & 0xff) }

// Clock returns the scalar clock.
func (e Epoch) Clock() uint64 { return uint64(e >> 8) }

// IsZero reports whether e is the bottom epoch.
func (e Epoch) IsZero() bool { return e == 0 }

// String renders c@t.
func (e Epoch) String() string { return fmt.Sprintf("%d@%d", e.Clock(), e.TID()) }

// LEQ reports e ⪯ V: the epoch happens-before (or equals) the vector
// time V.
func (e Epoch) LEQ(v VC) bool {
	return e.IsZero() || e.Clock() <= v.Get(e.TID())
}

// VC is a vector clock, indexed by thread id.  The zero value is the
// all-zero clock.
type VC struct {
	c []uint64
}

// New returns a vector clock with capacity for n threads.
func New(n int) VC { return VC{c: make([]uint64, n)} }

// Get returns component t (0 if beyond the stored length).
func (v VC) Get(t int) uint64 {
	if t < len(v.c) {
		return v.c[t]
	}
	return 0
}

// Set updates component t, growing as needed.
func (v *VC) Set(t int, val uint64) {
	v.grow(t + 1)
	v.c[t] = val
}

// Tick increments component t.
func (v *VC) Tick(t int) {
	v.grow(t + 1)
	v.c[t]++
}

func (v *VC) grow(n int) {
	if n <= len(v.c) {
		return
	}
	if n <= cap(v.c) {
		// Re-extend into spare capacity (left behind by Clear), zeroing
		// the revived components: their old values are stale history.
		old := len(v.c)
		v.c = v.c[:n]
		for i := old; i < n; i++ {
			v.c[i] = 0
		}
		return
	}
	nc := make([]uint64, n)
	copy(nc, v.c)
	v.c = nc
}

// Clear empties the clock (Len and Words drop to 0) but keeps the
// underlying storage, so a later Set or Join re-extends without
// allocating.  Adaptive shadow state uses this for read-vector demotion:
// the epoch↔vector transitions of a churning location recycle one
// buffer instead of allocating per promotion.  The spare capacity is
// deliberately excluded from Words — the census models live shadow
// state, and a cleared vector is logically gone.
//
// Callers must not Clear a clock whose storage may be shared with a
// struct-copied VC (Copy always detaches; plain assignment does not).
func (v *VC) Clear() { v.c = v.c[:0] }

// Join sets v to the pointwise maximum of v and o.  It returns the
// number of words v grew by, so callers maintaining an incremental
// space census can account for clock-vector growth at the moment it
// happens (growth is the only way a join changes a clock's footprint).
func (v *VC) Join(o VC) int {
	before := len(v.c)
	v.grow(len(o.c))
	for i, x := range o.c {
		if x > v.c[i] {
			v.c[i] = x
		}
	}
	return len(v.c) - before
}

// Copy returns an independent copy of v.
func (v VC) Copy() VC {
	nc := make([]uint64, len(v.c))
	copy(nc, v.c)
	return VC{c: nc}
}

// Assign overwrites v with the contents of o (reusing storage).
func (v *VC) Assign(o VC) {
	v.grow(len(o.c))
	for i := range v.c {
		if i < len(o.c) {
			v.c[i] = o.c[i]
		} else {
			v.c[i] = 0
		}
	}
}

// LEQ reports v ⪯ o pointwise.
func (v VC) LEQ(o VC) bool {
	for i, x := range v.c {
		if x > o.Get(i) {
			return false
		}
	}
	return true
}

// Epoch returns the epoch of thread t at v's component.
func (v VC) Epoch(t int) Epoch { return MakeEpoch(t, v.Get(t)) }

// Len returns the number of stored components.
func (v VC) Len() int { return len(v.c) }

// AnyGreater returns the first thread whose component in v exceeds o's,
// or -1 when v ⪯ o.  Used for read-shared write checks.
func (v VC) AnyGreater(o VC) int {
	for i, x := range v.c {
		if x > o.Get(i) {
			return i
		}
	}
	return -1
}

// Words reports the memory footprint of the clock in 64-bit words, for
// the shadow-space census.
func (v VC) Words() int { return len(v.c) }

// Cap reports the components the clock's storage holds, spare capacity
// included, for counting the bytes a detector holds.
func (v VC) Cap() int { return cap(v.c) }

// String renders the clock as [c0, c1, ...].
func (v VC) String() string { return fmt.Sprint(v.c) }
