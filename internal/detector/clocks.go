package detector

import (
	"bigfoot/internal/interp"
	"bigfoot/internal/shadow"
	"bigfoot/internal/vc"
)

// clocks maintains the per-thread vector clocks and the release/acquire
// protocol shared by all detectors and the oracle.
//
// When meter is non-nil, every change to the censused clock storage
// (thread clocks and volatile clocks — see words) is reported as a word
// delta at the moment it happens, so the detector's incremental space
// census stays exact without walking.  Lock clocks and end snapshots
// are excluded from the census (matching words) and therefore never
// metered.
type clocks struct {
	vcs  []vc.VC
	ends []vc.VC
	vols map[volKey]vc.VC
	// lockCap counts the components lock clocks hold, for heldBytes
	// (lock clocks live on their objects, not here).
	lockCap int

	meter shadow.Meter

	// fast enables the lock-ownership cache on the acquire path (see
	// acquire); lockHits, when non-nil, counts acquires the cache
	// short-circuited.  Both are zero for the oracle and for detectors
	// configured with DisableFastPaths.
	fast     bool
	lockHits *uint64
}

type volKey struct {
	obj   *interp.Object
	field string
}

// lockShadow is the detector-owned state attached to an object used as
// a lock.  owner is the thread whose release installed the current v
// (-1 before the first release): when that same thread re-acquires, v
// is a snapshot of its own clock, which only grows, so the acquire-side
// Join is a guaranteed no-op — the lock-ownership cache skips it.
type lockShadow struct {
	v     vc.VC
	owner int
}

func (c *clocks) add(delta int) {
	if c.meter != nil && delta != 0 {
		c.meter.AddWords(delta)
	}
}

// now returns thread t's current vector clock.  The grow call is kept
// out of the steady state so the accessor inlines into the check hot
// path.
func (c *clocks) now(t int) vc.VC {
	if t >= len(c.vcs) {
		c.grow(t)
	}
	return c.vcs[t]
}

func (c *clocks) grow(t int) {
	for len(c.vcs) <= t {
		id := len(c.vcs)
		v := vc.New(id + 1)
		v.Set(id, 1)
		c.vcs = append(c.vcs, v)
		c.ends = append(c.ends, vc.VC{})
		c.add(id + 1)
	}
}

func (c *clocks) fork(parent, child int) {
	c.grow(parent)
	c.grow(child)
	before := c.vcs[child].Words()
	nv := c.vcs[parent].Copy()
	nv.Set(child, c.vcs[child].Get(child))
	c.vcs[child] = nv
	c.add(nv.Words() - before)
	c.vcs[parent].Tick(parent)
}

func (c *clocks) end(t int) {
	c.grow(t)
	c.ends[t] = c.vcs[t].Copy()
}

func (c *clocks) join(parent, child int) {
	c.grow(parent)
	c.grow(child)
	end := c.ends[child]
	if end.Len() == 0 {
		end = c.vcs[child]
	}
	c.add(c.vcs[parent].Join(end))
}

func (c *clocks) lockVC(lock *interp.Object) *lockShadow {
	if s, ok := lockState(lock); ok {
		return s
	}
	s := &lockShadow{owner: -1}
	setLockState(lock, s)
	return s
}

func (c *clocks) acquire(t int, lock *interp.Object) {
	c.grow(t)
	ls := c.lockVC(lock)
	if c.fast && ls.owner == t {
		// Lock-ownership cache: ls.v is a snapshot of t's own clock taken
		// at t's last release, and thread clocks only grow (ticks, joins;
		// thread ids are never reused, so fork never replaces a running
		// thread's clock).  Join(ls.v) would change nothing and grow v by
		// zero words, so skipping it is both detection- and
		// census-neutral.
		if c.lockHits != nil {
			*c.lockHits++
		}
		return
	}
	c.add(c.vcs[t].Join(ls.v))
}

func (c *clocks) release(t int, lock *interp.Object) {
	c.grow(t)
	ls := c.lockVC(lock)
	// Assign reuses the lock clock's storage (Copy would allocate a
	// fresh snapshot per release), so a steady acquire/release cycle by
	// one thread is allocation-free.  Semantically identical: a zeroed
	// tail reads the same as a shorter copy, and lock clocks are
	// excluded from the space census either way.
	before := ls.v.Cap()
	ls.v.Assign(c.vcs[t])
	c.lockCap += ls.v.Cap() - before
	ls.owner = t
	c.vcs[t].Tick(t)
}

func (c *clocks) volRead(t int, o *interp.Object, f string) {
	c.grow(t)
	if c.vols == nil {
		c.vols = map[volKey]vc.VC{}
	}
	c.add(c.vcs[t].Join(c.vols[volKey{o, f}]))
}

func (c *clocks) volWrite(t int, o *interp.Object, f string) {
	c.grow(t)
	if c.vols == nil {
		c.vols = map[volKey]vc.VC{}
	}
	k := volKey{o, f}
	v := c.vols[k]
	c.add(v.Join(c.vcs[t]))
	c.vols[k] = v
	c.vcs[t].Tick(t)
}

// words recomputes clock storage by walking (thread and volatile clocks
// only; lock clocks and end snapshots live in detector-owned space but
// are not part of the per-location census).  The run path relies on the
// metered increments instead; this walk backs the DebugCensus
// cross-check.
func (c *clocks) words() int {
	w := 0
	for _, v := range c.vcs {
		w += v.Words()
	}
	for _, v := range c.vols {
		w += v.Words()
	}
	return w
}

// heldBytes reports the bytes every vector clock's storage holds:
// thread clocks, end snapshots, volatile and lock clocks.
func (c *clocks) heldBytes() int {
	n := c.lockCap
	for i := range c.vcs {
		n += c.vcs[i].Cap() + c.ends[i].Cap()
	}
	for _, v := range c.vols {
		n += v.Cap()
	}
	return 8 * n
}

// The lock's vector clock lives in detector-owned space; locks are also
// plain objects, whose field shadow may coexist.  Pack both in a small
// struct stored in Object.Shadow.
type shadowPair struct {
	lock *lockShadow
	obj  *objShadow
}

func lockState(o *interp.Object) (*lockShadow, bool) {
	switch s := o.Shadow.(type) {
	case *lockShadow:
		return s, true
	case *shadowPair:
		if s.lock != nil {
			return s.lock, true
		}
	}
	return nil, false
}

func setLockState(o *interp.Object, ls *lockShadow) {
	switch s := o.Shadow.(type) {
	case nil:
		o.Shadow = ls
	case *objShadow:
		o.Shadow = &shadowPair{lock: ls, obj: s}
	case *shadowPair:
		s.lock = ls
	default:
		o.Shadow = ls
	}
}
