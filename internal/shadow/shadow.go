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

// Ops counts the shadow-location operations performed, the primary
// dynamic cost metric.
type Ops struct {
	Reads  uint64
	Writes uint64
}

// Total returns the total operation count.
func (o Ops) Total() uint64 { return o.Reads + o.Writes }

// Add accumulates.
func (o *Ops) Add(p Ops) {
	o.Reads += p.Reads
	o.Writes += p.Writes
}

func (s *State) shared() bool { return s.RV.Len() > 0 }

// Shared reports whether the location is in read-shared state (reads by
// concurrent threads tracked in a full vector rather than an epoch).
func (s *State) Shared() bool { return s.shared() }

// Read performs the FastTrack read check-and-update for thread t whose
// current vector time is now.  It returns a non-nil race when the read
// conflicts with a previous write.
func (s *State) Read(t int, now vc.VC) *Race { return s.ReadAt(t, now, bfj.Pos{}) }

// ReadAt is Read with the source position of the reading access, recorded
// for race provenance.
func (s *State) ReadAt(t int, now vc.VC, pos bfj.Pos) *Race {
	return s.readAt(t, now, pos, false)
}

// readAt is the read check-and-update; demote additionally enables the
// SmartTrack-style adaptive demotion of read-shared state (see
// ReadAtAdaptive).
func (s *State) readAt(t int, now vc.VC, pos bfj.Pos, demote bool) *Race {
	e := now.Epoch(t)
	if !s.shared() && s.R == e {
		return nil // same epoch (position of the epoch's first read is kept)
	}
	var race *Race
	if !s.W.LEQ(now) {
		race = &Race{PrevTID: s.W.TID(), CurTID: t, IsWrite: false, PrevW: true,
			PrevPos: s.wpos, CurPos: pos}
	}
	if s.shared() {
		if demote && s.RV.LEQ(now) {
			// Demotion: every recorded read happens-before this one, so
			// the reading thread has re-established exclusivity and a
			// single epoch carries the same information.  Any later
			// access u that races with a dropped read epoch also races
			// with e (RV ⪯ now implies now ⪯ VC_u whenever e ⪯ VC_u, by
			// the vector-clock property), so detection is unchanged; only
			// the racing thread reported as PrevTID may differ, which the
			// deterministic signatures deliberately exclude.  Clear keeps
			// the vector's storage for the next promotion.
			s.RV.Clear()
			s.R = e
			s.rpos = pos
			return race
		}
		s.RV.Set(t, e.Clock())
		s.rpos = pos
		return race
	}
	if s.R.IsZero() || s.R.LEQ(now) {
		s.R = e // exclusive
		s.rpos = pos
		return race
	}
	// Concurrent reads: inflate to a read vector.  Set re-extends any
	// storage a previous demotion left behind (see Clear), so a
	// promote↔demote churn cycle allocates at most once.
	s.RV.Set(max(s.R.TID(), t), 0)
	s.RV.Set(s.R.TID(), s.R.Clock())
	s.RV.Set(t, e.Clock())
	s.R = 0
	s.rpos = pos
	return race
}

// ReadAtAdaptive is ReadAt with adaptive read metadata: when the
// location is read-shared but every recorded read happens-before this
// one, the read vector collapses back to a single epoch (SmartTrack's
// metadata demotion), shrinking the state by the vector's words.
// Detection is unchanged — only PrevTID attribution of a later
// read-write race may differ, which deterministic signatures exclude.
func (s *State) ReadAtAdaptive(t int, now vc.VC, pos bfj.Pos) *Race {
	return s.readAt(t, now, pos, true)
}

// Write performs the FastTrack write check-and-update.
func (s *State) Write(t int, now vc.VC) *Race { return s.WriteAt(t, now, bfj.Pos{}) }

// WriteAt is Write with the source position of the writing access,
// recorded for race provenance.
func (s *State) WriteAt(t int, now vc.VC, pos bfj.Pos) *Race {
	e := now.Epoch(t)
	if s.W == e {
		return nil // same epoch
	}
	var race *Race
	if !s.W.LEQ(now) {
		race = &Race{PrevTID: s.W.TID(), CurTID: t, IsWrite: true, PrevW: true,
			PrevPos: s.wpos, CurPos: pos}
	}
	if s.shared() {
		if u := s.RV.AnyGreater(now); u >= 0 && race == nil {
			race = &Race{PrevTID: u, CurTID: t, IsWrite: true, PrevW: false,
				PrevPos: s.rpos, CurPos: pos}
		}
		s.RV.Clear() // deflate: reads are now ordered or reported
	} else if !s.R.IsZero() && !s.R.LEQ(now) && race == nil {
		race = &Race{PrevTID: s.R.TID(), CurTID: t, IsWrite: true, PrevW: false,
			PrevPos: s.rpos, CurPos: pos}
	}
	s.W = e
	s.R = 0
	s.wpos = pos
	s.rpos = bfj.Pos{}
	return race
}

// Apply performs a read or write operation.
func (s *State) Apply(write bool, t int, now vc.VC) *Race {
	return s.ApplyAt(write, t, now, bfj.Pos{})
}

// ApplyAt is Apply with the access's source position for provenance.
func (s *State) ApplyAt(write bool, t int, now vc.VC, pos bfj.Pos) *Race {
	if write {
		return s.WriteAt(t, now, pos)
	}
	return s.ReadAt(t, now, pos)
}

// ApplyAdaptive is ApplyAt with read-metadata demotion switched by the
// caller's configuration (detector.Config.DisableFastPaths): reads go
// through ReadAtAdaptive when demote is set.  Writes are unaffected —
// write-triggered deflation is part of the base protocol.
func (s *State) ApplyAdaptive(write bool, t int, now vc.VC, pos bfj.Pos, demote bool) *Race {
	if write {
		return s.WriteAt(t, now, pos)
	}
	return s.readAt(t, now, pos, demote)
}

// Owned reports whether thread t exclusively owns the location: the
// state is not read-shared, every recorded epoch (last write and last
// read, at least one of which exists) belongs to t.  An owned
// location's epochs are trivially ⪯ t's own clock, so a new access by t
// cannot race and needs no vector-clock comparison at all — the caller
// installs the new epoch directly (InstallRead/InstallWrite).  An
// untouched state is not owned: its first access must charge the census
// through the full path.
func (s *State) Owned(t int) bool {
	if s.shared() {
		return false
	}
	if s.W != 0 && s.W.TID() != t {
		return false
	}
	if s.R != 0 && s.R.TID() != t {
		return false
	}
	return s.W != 0 || s.R != 0
}

// InstallRead records a read already proven race-free (the ownership
// fast path): the read epoch replaces R with no checks and no footprint
// change.  Callers must have established Owned(t) for the reading
// thread.
func (s *State) InstallRead(e vc.Epoch, pos bfj.Pos) {
	s.R = e
	s.rpos = pos
}

// InstallWrite records a write already proven race-free (the ownership
// fast path), mirroring WriteAt's state transition: the write epoch
// replaces W and clears the read epoch.  Callers must have established
// Owned(t) for the writing thread.
func (s *State) InstallWrite(e vc.Epoch, pos bfj.Pos) {
	s.W = e
	s.R = 0
	s.wpos = pos
	s.rpos = bfj.Pos{}
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

	// DemoteReads enables SmartTrack-style read-metadata demotion in the
	// per-state transitions (see State.ReadAtAdaptive).  Off by default
	// so existing callers keep plain FastTrack semantics.
	DemoteReads bool

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
// representation.  It returns any detected races and the number of
// shadow-location operations performed.
func (a *ArrayShadow) Commit(write bool, t int, now vc.VC, lo, hi, step int) ([]*Race, uint64) {
	return a.CommitAt(write, t, now, lo, hi, step, bfj.Pos{})
}

// CommitAt is Commit with the source position of the committed access
// (a representative position when the footprint entry merged several
// accesses), recorded for race provenance.
func (a *ArrayShadow) CommitAt(write bool, t int, now vc.VC, lo, hi, step int, pos bfj.Pos) ([]*Race, uint64) {
	if lo < 0 {
		lo = 0
	}
	if hi > a.n {
		hi = a.n
	}
	if lo >= hi || step < 1 {
		return nil, 0
	}
	var races []*Race
	var ops uint64
	apply := func(s *State) {
		before := s.Words()
		sharedBefore := s.Shared()
		if r := s.ApplyAdaptive(write, t, now, pos, a.DemoteReads); r != nil {
			races = append(races, r)
		}
		if sharedBefore != s.Shared() {
			if sharedBefore {
				// A write deflating the vector is base-protocol, not an
				// adaptive demotion.
				if !write {
					a.Demotions++
				}
			} else {
				a.Promotions++
			}
		}
		a.addw(s.Words() - before)
		ops++
	}

	switch a.mode {
	case ModeCoarse:
		switch {
		case step == 1 && lo == 0 && hi == a.n:
			apply(&a.coarse)
		case step > 1 && lo < step && hi > a.n-step:
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
		case step == a.stride && lo < step && hi > a.n-step:
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
