// Package shadow implements the shadow-location state machines of the
// dynamic detectors: the FastTrack adaptive epoch representation for a
// single location, and the SlimState-style adaptively compressed shadow
// state for arrays (coarse → blocks/strided → fine), which BigFoot
// refines at footprint-commit time (§4).
package shadow

import (
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
// last-read epoch R or (when reads are concurrent) a full read vector RV.
//
// For race provenance the state also remembers the source position of
// the last write and of a representative last read.  Under read-shared
// state (RV non-empty) rpos is the position of the most recent read of
// any thread — an approximation, since FastTrack's O(1) epoch
// representation deliberately forgets per-thread access history.  The
// positions are metadata, excluded from Words(): they do not model
// per-location space a real detector would have to allocate (RoadRunner
// recovers positions from the instrumented bytecode, not shadow memory).
type State struct {
	W  vc.Epoch
	R  vc.Epoch
	RV vc.VC // non-empty iff read-shared

	wpos bfj.Pos // position of the access that installed W
	rpos bfj.Pos // position of the representative last read
}

func (s *State) shared() bool { return s.RV.Len() > 0 }

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
// read-shared state has R == 0, and a touched epoch is never zero, so
// one comparison suffices.  It is small enough to inline, so the
// detectors' loops test it before calling Access.
func (s *State) SameEpoch(write bool, e vc.Epoch) bool {
	if write {
		return s.W == e
	}
	return s.R == e
}

// Access performs the FastTrack check-and-update of one access by
// thread t, whose current vector time is now, at source position pos.
// It returns the race the access makes with an earlier one (nil if
// none), how it was decided, and the change in Words.
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
// demotion.
func (s *State) Access(write bool, t int, now vc.VC, pos bfj.Pos, fast bool) (race *Race, step Step, dw int) {
	e := now.Epoch(t)
	if s.SameEpoch(write, e) {
		// The protocol's own same-epoch rule; the position of the
		// epoch's first access is kept.
		if fast {
			step = SameEpoch
		}
		return nil, step, 0
	}
	// Ownership: touched, not read-shared, and every recorded epoch is t's.
	if fast && !s.shared() && (s.W != 0 || s.R != 0) &&
		(s.W == 0 || s.W.TID() == t) && (s.R == 0 || s.R.TID() == t) {
		if write {
			s.W, s.wpos = e, pos
			s.R, s.rpos = 0, bfj.Pos{}
		} else {
			s.R, s.rpos = e, pos
		}
		return nil, Owned, 0
	}
	before := s.Words()
	if !s.W.LEQ(now) {
		race = &Race{PrevTID: s.W.TID(), CurTID: t, IsWrite: write, PrevW: true,
			PrevPos: s.wpos, CurPos: pos}
	}
	switch {
	case write:
		if s.shared() {
			if u := s.RV.AnyGreater(now); u >= 0 && race == nil {
				race = &Race{PrevTID: u, CurTID: t, IsWrite: true, PrevW: false,
					PrevPos: s.rpos, CurPos: pos}
			}
			s.RV.Clear() // deflate: reads are now ordered or reported
		} else if !s.R.LEQ(now) && race == nil {
			race = &Race{PrevTID: s.R.TID(), CurTID: t, IsWrite: true, PrevW: false,
				PrevPos: s.rpos, CurPos: pos}
		}
		s.W, s.wpos = e, pos
		s.R, s.rpos = 0, bfj.Pos{}
	case s.shared() && fast && s.RV.LEQ(now):
		// Clear keeps the vector's storage for the next promotion.
		s.RV.Clear()
		s.R, s.rpos = e, pos
		step = Demoted
	case s.shared():
		s.RV.Set(t, e.Clock())
		s.rpos = pos
	case s.R.LEQ(now):
		s.R, s.rpos = e, pos // exclusive
	default:
		// Concurrent reads: inflate to a read vector.  Set re-extends any
		// storage a previous demotion left behind (see Clear), so a
		// promote↔demote churn cycle allocates at most once.
		s.RV.Set(max(s.R.TID(), t), 0)
		s.RV.Set(s.R.TID(), s.R.Clock())
		s.RV.Set(t, e.Clock())
		s.R, s.rpos = 0, pos
		step = Promoted
	}
	return race, step, s.Words() - before
}

// Words reports the state's size in 64-bit words for the space census:
// two epoch words plus any read vector.
func (s *State) Words() int { return 2 + s.RV.Words() }

// Untouched reports whether the state has never seen an access.  Used
// by the incremental census to charge a state's base two words on first
// touch: epochs pack clock@tid with clocks starting at 1, so any access
// installs a non-zero W or R (or inflates RV), and a later write that
// deflates RV leaves W non-zero — a touched state never reads as
// untouched again.
func (s *State) Untouched() bool { return s.W.IsZero() && s.R.IsZero() && !s.shared() }

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
// elements.
func NewArrayShadow(n int) *ArrayShadow {
	// The coarse representation is one State: two words.
	return &ArrayShadow{n: n, mode: ModeCoarse, words: 2}
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
		return a.coarse.Words()
	case ModeBlocks:
		w := len(a.bounds)
		for i := range a.segs {
			w += a.segs[i].Words()
		}
		return w
	case ModeStrided:
		w := 1
		for i := range a.strided {
			w += a.strided[i].Words()
		}
		return w
	default:
		w := 0
		for i := range a.fine {
			w += a.fine[i].Words()
		}
		return w
	}
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
		r, how, dw := s.Access(write, t, now, pos, a.Fast)
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
	for i := 0; i < len(a.segs); i++ {
		if a.bounds[i] >= lo && a.bounds[i+1] <= hi {
			apply(&a.segs[i])
		}
	}
}

func (a *ArrayShadow) commitFine(apply func(*State), lo, hi, step int) {
	for i := lo; i < hi; i += step {
		apply(&a.fine[i])
	}
}

// splitAt introduces a segment boundary at index k (no-op if already a
// boundary or out of range).
func (a *ArrayShadow) splitAt(k int) {
	if k <= 0 || k >= a.n {
		return
	}
	for i := 0; i < len(a.bounds)-1; i++ {
		if a.bounds[i] == k {
			return
		}
		if a.bounds[i] < k && k < a.bounds[i+1] {
			a.bounds = append(a.bounds, 0)
			copy(a.bounds[i+2:], a.bounds[i+1:])
			a.bounds[i+1] = k
			a.segs = append(a.segs, State{})
			copy(a.segs[i+1:], a.segs[i:])
			a.segs[i+1] = cloneState(a.segs[i])
			// One new bound word plus the cloned segment state.
			a.addw(1 + a.segs[i+1].Words())
			return
		}
	}
}

func cloneState(s State) State {
	// Copy unconditionally: a demotion-cleared read vector has length 0
	// but retains capacity, and a struct copy would share that backing
	// array — a later re-inflation of either copy would then clobber the
	// other's live components.  Copying an empty vector is free.
	s.RV = s.RV.Copy()
	return s
}

func (a *ArrayShadow) toBlocks() {
	a.mode = ModeBlocks
	a.bounds = []int{0, a.n}
	a.segs = []State{a.coarse}
	a.Refinements++
	// The coarse state moved into segs[0] unchanged; the two bound
	// words are new.
	a.addw(2)
}

func (a *ArrayShadow) toStrided(k int) {
	cw := a.coarse.Words()
	a.mode = ModeStrided
	a.stride = k
	a.strided = make([]State, k)
	for j := range a.strided {
		a.strided[j] = cloneState(a.coarse)
	}
	a.Refinements++
	// From one coarse state (cw words) to the stride word plus k clones.
	a.addw(1 + k*cw - cw)
}

// toFine reverts to one state per element, duplicating the current
// representation's state into each covered element.
func (a *ArrayShadow) toFine() {
	fine := make([]State, a.n)
	switch a.mode {
	case ModeCoarse:
		for i := range fine {
			fine[i] = cloneState(a.coarse)
		}
	case ModeBlocks:
		for s := 0; s < len(a.segs); s++ {
			for i := a.bounds[s]; i < a.bounds[s+1]; i++ {
				fine[i] = cloneState(a.segs[s])
			}
		}
	case ModeStrided:
		for i := range fine {
			fine[i] = cloneState(a.strided[i%a.stride])
		}
	case ModeFine:
		return
	}
	nw := 0
	for i := range fine {
		nw += fine[i].Words()
	}
	a.mode = ModeFine
	a.fine = fine
	a.bounds, a.segs, a.strided = nil, nil, nil
	a.Refinements++
	a.addw(nw - a.words)
}
