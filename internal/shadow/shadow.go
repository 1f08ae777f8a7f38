// Package shadow implements the shadow-location state machines of the
// dynamic detectors: the FastTrack adaptive epoch representation for a
// single location, and the SlimState-style adaptively compressed shadow
// state for arrays (coarse → blocks/strided → fine), which BigFoot
// refines at footprint-commit time (§4).
package shadow

import (
	"slices"
	"unsafe"

	"bigfoot/internal/bfj"
	"bigfoot/internal/vc"
)

// Meter receives word-count deltas from shadow containers that resize
// their state (read-vector inflation/deflation, array-mode refinement,
// clock-vector growth).  Implementations keep a running total so the
// space census is exact at every step with O(1) work per transition —
// no full walks.  Deltas may be negative (e.g. a write deflating a
// read vector); the running total never goes below zero.
type Meter interface {
	AddWords(delta int)
}

// Race describes a detected data race on one shadow location.
type Race struct {
	PrevTID int     // thread of the earlier conflicting access
	CurTID  int     // thread of the later access
	IsWrite bool    // later access is a write
	PrevW   bool    // earlier access was a write
	PrevPos bfj.Pos // source position of the earlier access (zero if unknown)
	CurPos  bfj.Pos // source position of the later access (zero if unknown)
	Desc    string  // location description, filled by the detector
}

// State is a FastTrack shadow location: last-write epoch W, and either a
// last-read epoch R or, when reads are concurrent, a read vector.  The
// vector lives in the run's Vectors table: a read-shared state sets
// sharedBit in R, and the rest of R is the vector's slot.  A state
// holds no pointer and takes 32 bytes, so a slice of states is memory
// the garbage collector never scans.
//
// For race provenance the state also remembers the source position of
// the last write and of a representative last read, packed to 32-bit
// line and column.  Under read-shared state rpos is the position of the
// most recent read of any thread — an approximation, since FastTrack's
// O(1) epoch representation deliberately forgets per-thread access
// history.  The positions are metadata, excluded from Words: they do
// not model per-location space a real detector would have to allocate
// (RoadRunner recovers positions from the instrumented bytecode, not
// shadow memory).
type State struct {
	W vc.Epoch
	R vc.Epoch // last-read epoch, or sharedBit | slot when read-shared

	wpos bfj.Pos32 // position of the access that installed W
	rpos bfj.Pos32 // position of the representative last read
}

// sharedBit tags a read-shared state's R.  No epoch has it set (see
// vc.MakeEpoch), so a tagged R never equals an access's epoch.
const sharedBit vc.Epoch = 1 << 63

func (s *State) shared() bool { return s.R&sharedBit != 0 }

// slot returns a read-shared state's slot in the Vectors table.
func (s *State) slot() int { return int(s.R &^ sharedBit) }

// Step says how Access decided an access.  The detectors count the
// shortcuts and the read-metadata transitions (FastPathStats).
type Step uint8

const (
	Full      Step = iota // the protocol, with no read-vector transition
	SameEpoch             // shortcut: the state already holds the access's epoch
	Owned                 // shortcut: every recorded epoch is the thread's own
	Promoted              // protocol: a read inflated the read epoch to a vector
	Demoted               // protocol: a read collapsed the read vector to an epoch
)

// SameEpoch reports whether the state already records epoch e for an
// access of this kind, in which case the access changes nothing.  A
// read-shared state's R carries sharedBit, which no epoch has, so one
// comparison suffices.  It is small enough to inline, so the detectors'
// loops test it before calling Access.
func (s *State) SameEpoch(write bool, e vc.Epoch) bool {
	if write {
		return s.W == e
	}
	return s.R == e
}

// Access performs the FastTrack check-and-update of one access by
// thread t, whose current vector time is now, at source position pos.
// vs is the table holding the run's read vectors.  It returns the race
// the access makes with an earlier one (nil if none), how it was
// decided, and the change in Words.
//
// With fast set it first takes SmartTrack's shortcuts.  Same epoch: the
// state already holds the access's epoch.  Ownership: the state is not
// read-shared and every recorded epoch (last write and last read, at
// least one of which exists) belongs to t; those epochs are trivially ⪯
// t's own clock, so the new epoch installs with no vector-clock
// comparison.  An untouched state is not owned, so its first access
// runs the protocol.  Both shortcuts decide what the protocol would:
// the same state, no race, no change in words.
//
// Otherwise the protocol runs.  With fast set a read also demotes: when
// the location is read-shared but every recorded read happens-before
// this one, the read vector collapses back to a single epoch.  Any
// later access u that races with a dropped read epoch also races with
// the new one (RV ⪯ now implies now ⪯ VC_u whenever e ⪯ VC_u), so
// detection is unchanged; only the thread reported as PrevTID of a
// later read-write race may differ, which the deterministic signatures
// exclude.  A write deflating the vector is base protocol, not a
// demotion.  Deflation and demotion free the vector's slot; the next
// promotion takes a free slot and re-extends its storage (see
// vc.VC.Clear), so a promote↔demote churn cycle allocates nothing once
// the table is sized.
func (s *State) Access(vs *Vectors, write bool, t int, now vc.VC, pos bfj.Pos, fast bool) (race *Race, step Step, dw int) {
	e := now.Epoch(t)
	if s.SameEpoch(write, e) {
		// The protocol's own same-epoch rule; the position of the
		// epoch's first access is kept.
		if fast {
			step = SameEpoch
		}
		return nil, step, 0
	}
	shared := s.shared()
	// Ownership: touched, not read-shared, and every recorded epoch is t's.
	if fast && !shared && (s.W != 0 || s.R != 0) &&
		(s.W == 0 || s.W.TID() == t) && (s.R == 0 || s.R.TID() == t) {
		if write {
			s.W, s.wpos = e, pos.Pack()
			s.R, s.rpos = 0, bfj.Pos32{}
		} else {
			s.R, s.rpos = e, pos.Pack()
		}
		return nil, Owned, 0
	}
	if !s.W.LEQ(now) {
		race = &Race{PrevTID: s.W.TID(), CurTID: t, IsWrite: write, PrevW: true,
			PrevPos: s.wpos.Unpack(), CurPos: pos}
	}
	switch {
	case write:
		if shared {
			rv := &vs.vs[s.slot()]
			if u := rv.AnyGreater(now); u >= 0 && race == nil {
				race = &Race{PrevTID: u, CurTID: t, IsWrite: true, PrevW: false,
					PrevPos: s.rpos.Unpack(), CurPos: pos}
			}
			dw = -rv.Words()
			vs.release(s.slot()) // deflate: reads are now ordered or reported
		} else if !s.R.LEQ(now) && race == nil {
			race = &Race{PrevTID: s.R.TID(), CurTID: t, IsWrite: true, PrevW: false,
				PrevPos: s.rpos.Unpack(), CurPos: pos}
		}
		s.W, s.wpos = e, pos.Pack()
		s.R, s.rpos = 0, bfj.Pos32{}
	case shared && fast && vs.vs[s.slot()].LEQ(now):
		dw = -vs.vs[s.slot()].Words()
		vs.release(s.slot())
		s.R, s.rpos = e, pos.Pack()
		step = Demoted
	case shared:
		rv := &vs.vs[s.slot()]
		before := rv.Words()
		rv.Set(t, e.Clock())
		dw = rv.Words() - before
		s.rpos = pos.Pack()
	case s.R.LEQ(now):
		s.R, s.rpos = e, pos.Pack() // exclusive
	default:
		// Concurrent reads: inflate to a read vector.
		i := vs.alloc()
		rv := &vs.vs[i]
		rv.Set(max(s.R.TID(), t), 0)
		rv.Set(s.R.TID(), s.R.Clock())
		rv.Set(t, e.Clock())
		dw = rv.Words()
		s.R, s.rpos = sharedBit|vc.Epoch(i), pos.Pack()
		step = Promoted
	}
	return race, step, dw
}

// Words reports the state's size in 64-bit words for the space census:
// two epoch words plus any read vector, which vs holds.
func (s *State) Words(vs *Vectors) int {
	if s.shared() {
		return 2 + vs.vs[s.slot()].Words()
	}
	return 2
}

// Untouched reports whether the state has never seen an access.  Used
// by the incremental census to charge a state's base two words on first
// touch: epochs pack clock@tid with clocks starting at 1, so any access
// installs a non-zero W or R (a read-shared R carries sharedBit), and a
// later write that deflates the vector leaves W non-zero — a touched
// state never reads as untouched again.
func (s *State) Untouched() bool { return s.W == 0 && s.R == 0 }

// StateBytes is the size of one State, for counting held bytes.
const StateBytes = int(unsafe.Sizeof(State{}))

// Vectors is one run's table of read vectors, one slot per read-shared
// state.  A state frees its slot when a write deflates the vector or a
// read demotes it; the slot keeps its storage for the next promotion,
// which takes the most recently freed slot.  The detector and the
// oracle each own one table, shared by every state they keep.
type Vectors struct {
	vs   []vc.VC // slot → read vector; a free slot's is empty
	free []int   // free slots, taken last in, first out
}

// alloc returns a free slot, whose vector is empty.
func (t *Vectors) alloc() int {
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		return i
	}
	t.vs = append(t.vs, vc.VC{})
	return len(t.vs) - 1
}

// release empties slot i's vector, keeping its storage, and frees the
// slot.
func (t *Vectors) release(i int) {
	t.vs[i].Clear()
	t.free = append(t.free, i)
}

// copyOf returns a copy of s for another shadow location: a read-shared
// copy gets its own slot holding the same vector, so the copies never
// share one.
func (t *Vectors) copyOf(s State) State {
	if s.shared() {
		i := t.alloc()
		t.vs[i].Assign(t.vs[s.slot()])
		s.R = sharedBit | vc.Epoch(i)
	}
	return s
}

// drop frees the slot of a read-shared state that a refinement
// discards.
func (t *Vectors) drop(s *State) {
	if s.shared() {
		t.release(s.slot())
		s.R = 0
	}
}

// Slots reports the number of slots the table holds, in use or free.
func (t *Vectors) Slots() int { return len(t.vs) }

// HeldBytes reports the bytes the table holds: the slot and free-list
// storage and every vector's components, spare capacity included.
func (t *Vectors) HeldBytes() int {
	b := int(unsafe.Sizeof(vc.VC{}))*cap(t.vs) + int(unsafe.Sizeof(int(0)))*cap(t.free)
	for _, v := range t.vs {
		b += 8 * v.Cap()
	}
	return b
}

// ---------------------------------------------------------------------------
// Adaptive array shadow state (SlimState / BigFoot §4)
// ---------------------------------------------------------------------------

// ArrayMode identifies the current compression mode of an array shadow.
type ArrayMode int

// Array shadow modes, from most to least compressed.
const (
	ModeCoarse  ArrayMode = iota // one state for the whole array
	ModeBlocks                   // contiguous segments, one state each
	ModeStrided                  // k interleaved states by residue class
	ModeFine                     // one state per element
)

var modeNames = map[ArrayMode]string{
	ModeCoarse: "coarse", ModeBlocks: "blocks", ModeStrided: "strided", ModeFine: "fine",
}

// String names the mode.
func (m ArrayMode) String() string { return modeNames[m] }

// maxBlockSegments bounds the blocks representation before reverting to
// fine-grained.
const maxBlockSegments = 64

// ArrayShadow is the adaptively compressed shadow state of one array.
// It starts coarse (a single state covering all elements) and refines
// when a committed footprint is inconsistent with the current
// representation; if refinement degenerates, it reverts to fine-grained.
type ArrayShadow struct {
	n    int
	mode ArrayMode

	coarse State

	// blocks mode: segment i covers [bounds[i], bounds[i+1]).
	bounds []int
	segs   []State

	// strided mode: stride k, states[j] covers indices ≡ j (mod k).
	stride  int
	strided []State

	fine []State

	// vs holds the read vectors of the states above.
	vs *Vectors

	// Refinements counts representation changes (reported in ablations).
	Refinements int

	// Fast is the fast flag every commit passes to State.Access: the
	// same-epoch and ownership shortcuts, which a commit takes
	// uncounted, and read-metadata demotion.  Off by default, so a
	// commit runs plain FastTrack.
	Fast bool

	// Promotions and Demotions count epoch→vector and vector→epoch read
	// metadata transitions across all states of this shadow (a write
	// deflating a read vector is part of the base protocol and is not
	// counted as a demotion).
	Promotions uint64
	Demotions  uint64

	// words caches the current footprint so Words is O(1); every
	// internal transition funnels its delta through addw, which also
	// forwards it to the attached meter (if any).
	words int
	meter Meter
}

// NewArrayShadow builds the initial (coarse) shadow for an array of n
// elements, whose read vectors vs holds.
func NewArrayShadow(n int, vs *Vectors) *ArrayShadow {
	// The coarse representation is one State: two words.
	return &ArrayShadow{n: n, mode: ModeCoarse, vs: vs, words: 2}
}

// SetMeter attaches a meter that receives every subsequent word-count
// delta of this shadow.  The current footprint (Words) is not reported
// retroactively — the caller accounts for it when attaching.
func (a *ArrayShadow) SetMeter(m Meter) { a.meter = m }

// addw applies a word-count delta to the cache and the meter.
func (a *ArrayShadow) addw(delta int) {
	if delta == 0 {
		return
	}
	a.words += delta
	if a.meter != nil {
		a.meter.AddWords(delta)
	}
}

// Mode returns the current representation mode.
func (a *ArrayShadow) Mode() ArrayMode { return a.mode }

// Words reports the shadow size in 64-bit words for the space census.
// It is an O(1) read of the incrementally maintained cache; WalkWords
// recomputes the same value from the representation for cross-checks.
func (a *ArrayShadow) Words() int { return a.words }

// WalkWords recomputes the shadow size by walking the current
// representation.  It exists only to validate the incremental cache
// (detector.Config.DebugCensus and the shadow tests); the run path uses
// Words.
func (a *ArrayShadow) WalkWords() int {
	switch a.mode {
	case ModeCoarse:
		return a.coarse.Words(a.vs)
	case ModeBlocks:
		return len(a.bounds) + a.statesWords(a.segs)
	case ModeStrided:
		return 1 + a.statesWords(a.strided)
	default:
		return a.statesWords(a.fine)
	}
}

func (a *ArrayShadow) statesWords(states []State) int {
	w := 0
	for i := range states {
		w += states[i].Words(a.vs)
	}
	return w
}

// HeldBytes reports the bytes the representation holds: its states,
// spare capacity included, and the blocks mode's bounds.  Read vectors
// count in the Vectors table.
func (a *ArrayShadow) HeldBytes() int {
	return StateBytes*(1+cap(a.segs)+cap(a.strided)+cap(a.fine)) + int(unsafe.Sizeof(int(0)))*cap(a.bounds)
}

// Commit applies a (possibly strided) range operation [lo,hi):step of
// the given kind by thread t at time now, adaptively refining the
// representation.  pos is the source position of the committed access
// (a representative position when the footprint entry merged several
// accesses), recorded for race provenance.  It returns any detected
// races and the number of shadow-location operations performed.
func (a *ArrayShadow) Commit(write bool, t int, now vc.VC, lo, hi, step int, pos bfj.Pos) ([]*Race, uint64) {
	if step < 1 {
		return nil, 0
	}
	if lo < 0 {
		lo = (lo%step + step) % step // the stride's first element at or past 0
	}
	hi = min(hi, a.n)
	if lo >= hi {
		return nil, 0
	}
	var races []*Race
	var ops uint64
	apply := func(s *State) {
		r, how, dw := s.Access(a.vs, write, t, now, pos, a.Fast)
		if r != nil {
			races = append(races, r)
		}
		switch how {
		case Promoted:
			a.Promotions++
		case Demoted:
			a.Demotions++
		}
		a.addw(dw)
		ops++
	}

	switch a.mode {
	case ModeCoarse:
		switch {
		case step == 1 && lo == 0 && hi == a.n:
			apply(&a.coarse)
		case step > 1 && a.column(lo, hi, step):
			// Full residue column: adopt the strided representation.
			a.toStrided(step)
			apply(&a.strided[lo%step])
		case step == 1:
			// Partial contiguous commit: refine to blocks.
			a.toBlocks()
			a.commitBlocks(apply, lo, hi)
		default:
			// Partial strided commit: no compressed mode fits.
			a.toFine()
			a.commitFine(apply, lo, hi, step)
		}

	case ModeBlocks:
		if step != 1 {
			a.toFine()
			a.commitFine(apply, lo, hi, step)
		} else {
			a.commitBlocks(apply, lo, hi)
		}

	case ModeStrided:
		switch {
		case step == a.stride && a.column(lo, hi, step):
			apply(&a.strided[lo%step])
		case step == 1 && lo == 0 && hi == a.n:
			// Whole-array access in strided mode: one op per column.
			for j := range a.strided {
				apply(&a.strided[j])
			}
		default:
			a.toFine()
			a.commitFine(apply, lo, hi, step)
		}

	default: // ModeFine
		a.commitFine(apply, lo, hi, step)
	}
	return races, ops
}

// column reports whether [lo,hi):step is a whole residue column: it
// starts at the column's first element and its own last element is
// the column's last.
func (a *ArrayShadow) column(lo, hi, step int) bool {
	return lo < step && lo+(hi-1-lo)/step*step >= a.n-step
}

// commitBlocks applies [lo,hi) in blocks mode: it makes lo and hi
// segment bounds, then applies the segments between them in ascending
// order, found by binary search.
func (a *ArrayShadow) commitBlocks(apply func(*State), lo, hi int) {
	a.splitAt(lo)
	a.splitAt(hi)
	if len(a.segs) > maxBlockSegments {
		a.toFine()
		for i := lo; i < hi; i++ {
			apply(&a.fine[i])
		}
		return
	}
	i, _ := slices.BinarySearch(a.bounds, lo)
	for ; a.bounds[i] < hi; i++ {
		apply(&a.segs[i])
	}
}

func (a *ArrayShadow) commitFine(apply func(*State), lo, hi, step int) {
	for i := lo; i < hi; i += step {
		apply(&a.fine[i])
	}
}

// splitAt introduces a segment boundary at index k (no-op if already a
// boundary or out of range).  The segment k falls in is found by binary
// search; its two halves start as copies of it.
func (a *ArrayShadow) splitAt(k int) {
	if k <= 0 || k >= a.n {
		return
	}
	i, found := slices.BinarySearch(a.bounds, k)
	if found {
		return
	}
	// k lies inside segment i-1, [bounds[i-1], bounds[i]).
	a.bounds = slices.Insert(a.bounds, i, k)
	a.segs = slices.Insert(a.segs, i, a.vs.copyOf(a.segs[i-1]))
	// One new bound word plus the copied segment state.
	a.addw(1 + a.segs[i].Words(a.vs))
}

func (a *ArrayShadow) toBlocks() {
	a.mode = ModeBlocks
	a.bounds = []int{0, a.n}
	a.segs = []State{a.coarse}
	a.coarse = State{}
	a.Refinements++
	// The coarse state moved into segs[0] unchanged; the two bound
	// words are new.
	a.addw(2)
}

func (a *ArrayShadow) toStrided(k int) {
	cw := a.coarse.Words(a.vs)
	a.mode = ModeStrided
	a.stride = k
	a.strided = make([]State, k)
	a.strided[0] = a.coarse
	for j := 1; j < k; j++ {
		a.strided[j] = a.vs.copyOf(a.coarse)
	}
	a.coarse = State{}
	a.Refinements++
	// From one coarse state (cw words) to the stride word plus k copies.
	a.addw(1 + k*cw - cw)
}

// toFine reverts to one state per element, copying the current
// representation's state into each covered element.  The old
// representation's states are discarded and free their slots.
func (a *ArrayShadow) toFine() {
	fine := make([]State, a.n)
	switch a.mode {
	case ModeCoarse:
		for i := range fine {
			fine[i] = a.vs.copyOf(a.coarse)
		}
		a.vs.drop(&a.coarse)
	case ModeBlocks:
		for s := range a.segs {
			for i := a.bounds[s]; i < a.bounds[s+1]; i++ {
				fine[i] = a.vs.copyOf(a.segs[s])
			}
			a.vs.drop(&a.segs[s])
		}
	case ModeStrided:
		for i := range fine {
			fine[i] = a.vs.copyOf(a.strided[i%a.stride])
		}
		for j := range a.strided {
			a.vs.drop(&a.strided[j])
		}
	case ModeFine:
		return
	}
	nw := a.statesWords(fine)
	a.mode = ModeFine
	a.fine = fine
	a.bounds, a.segs, a.strided = nil, nil, nil
	a.Refinements++
	a.addw(nw - a.words)
}
