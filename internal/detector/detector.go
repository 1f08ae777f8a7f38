// Package detector implements the five precise dynamic race detectors
// evaluated in the paper — FastTrack (FT), RedCard (RC), SlimState (SS),
// SlimCard (SC), and BigFoot (BF) — plus a DJIT+/FastTrack-style oracle
// over raw accesses used as ground truth in precision tests.
//
// Each detector is the same check-driven engine with two feature flags
// (Figure 2 of the paper):
//
//	            check placement          footprints+array   field
//	            (instrument pkg)         compression        proxies
//	FT          every access             no                 no
//	RC          redundant-check elim.    no                 yes
//	SS          every access             yes                no
//	SC          redundant-check elim.    yes                yes
//	BF          BigFoot static placement yes                yes
//
// The engine consumes check events (CheckField/CheckRange) and
// synchronization events from the interpreter; it never looks at raw
// accesses (those feed the oracle only).
//
// # Space accounting
//
// ShadowWords/PeakWords are maintained incrementally: every transition
// that changes a shadow location's footprint — state creation,
// read-vector inflation/deflation, array-mode refinement, clock-vector
// growth — reports its word delta through AddWords (the shadow.Meter
// implementation) at the moment it happens.  The census is therefore
// exact at every step with O(1) work per transition; there is no
// periodic full walk on the run path.  Config.DebugCensus retains a
// walking recount purely as a cross-check assertion.
package detector

import (
	"fmt"
	"sort"

	"bigfoot/internal/bfj"
	"bigfoot/internal/footprint"
	"bigfoot/internal/interp"
	"bigfoot/internal/proxy"
	"bigfoot/internal/shadow"
)

// Config selects a detector variant.
type Config struct {
	// Footprints enables per-thread array footprints committed at
	// synchronization operations, with adaptively compressed array
	// shadow state (SlimState §4).
	Footprints bool
	// Proxies enables static field proxy compression; nil disables.
	Proxies *proxy.Table
	// DisableFastPaths turns off the SmartTrack-style epoch-level fast
	// paths (same-epoch, exclusive-ownership, adaptive read-metadata
	// demotion, lock-ownership cache) and runs the full vector-clock
	// protocol on every event.  The fast paths are observationally
	// neutral — the differential sweep runs every program both ways and
	// asserts identical signatures and race sets — so this knob exists
	// for that verification and for ablation timing, not correctness.
	DisableFastPaths bool
	// DebugCensus cross-checks the incremental space census against a
	// full shadow walk at every synchronization operation and at
	// Finish, panicking on any mismatch.  It exists to validate the
	// O(1) accounting (enabled across the difftest sweep and the
	// regress corpus); never set it in benchmarked runs — the walk is
	// exactly the cost the incremental census removed.
	DebugCensus bool
}

// Race is a reported data race with two-sited provenance: the source
// position and access kind of both conflicting accesses.  Positions are
// zero when the program was built without source text (programmatic
// ASTs) or when the earlier access predates provenance tracking for its
// location (e.g. the representative read position under read-shared
// state — see shadow.State).
type Race struct {
	Desc      string // human-readable location, e.g. "Point#3.x/y/z"
	PrevTID   int
	CurTID    int
	PrevPos   bfj.Pos // source position of the earlier access
	CurPos    bfj.Pos // source position of the later access
	PrevWrite bool    // earlier access was a write
	CurWrite  bool    // later access was a write
	ObjID     int     // -1 for array races
	Field     string  // group representative ("" for array races)
	ArrayID   int     // -1 for field races
	Lo, Hi    int     // racy committed range (arrays)
	Step      int
	ClassTag  string
}

// Observer receives detector-side dynamics that the interp.Hook stream
// cannot see: footprint commits, array-mode refinements, and
// shadow-state transitions.  Like Hook callbacks, Observer callbacks run
// one at a time (globally serialized, no locking needed).  A
// nil observer costs a single pointer test per event site.
type Observer interface {
	// FootprintCommit reports that thread t committed pending footprint
	// entries covering `arrays` distinct arrays and `entries` range
	// entries in total.
	FootprintCommit(t int, arrays, entries int)
	// ArrayRefinement reports an array shadow representation change
	// (e.g. "coarse" → "strided") triggered by a commit of thread t.
	ArrayRefinement(t int, arrayID int, from, to string)
	// ReadShared reports that a field shadow location inflated from an
	// exclusive read epoch to a read-shared vector at a check by t.
	ReadShared(t int, desc string)
}

// SetObserver attaches an observer for detector-side events (nil
// detaches).  Must be called before the run starts.
func (d *Detector) SetObserver(o Observer) { d.obs = o }

// FastPathStats counts hits on each epoch-level fast path plus the
// adaptive read-metadata transitions.  The counters are plain fields
// bumped on the run path (no sampling, no allocation) and folded into
// the metrics registry only after the run ends; none of them enter the
// deterministic report signature, since the enabled/disabled runs must
// stay byte-identical there.
type FastPathStats struct {
	SameEpochReads  uint64 // reads returned on the R == epoch test alone
	SameEpochWrites uint64 // writes returned on the W == epoch test alone
	OwnedReads      uint64 // reads installed via exclusive ownership
	OwnedWrites     uint64 // writes installed via exclusive ownership
	ReadPromotions  uint64 // read epoch → read vector inflations
	ReadDemotions   uint64 // read vector → read epoch collapses (adaptive)
	LockOwnerHits   uint64 // acquires short-circuited by the lock-ownership cache
}

// Total returns the combined fast-path hit count (transitions excluded).
func (f FastPathStats) Total() uint64 {
	return f.SameEpochReads + f.SameEpochWrites + f.OwnedReads + f.OwnedWrites + f.LockOwnerHits
}

// Stats are the dynamic cost counters of one run.
type Stats struct {
	ShadowOps    uint64 // check-and-update operations on shadow locations
	FootprintOps uint64 // footprint append operations
	SyncOps      uint64
	ShadowWords  uint64 // current shadow memory, 64-bit words (exact, incremental)
	PeakWords    uint64 // high-water mark of ShadowWords (exact, incremental)
	Refinements  int    // array representation changes

	Fast FastPathStats // fast-path hit counters (not part of signatures)
}

// Detector is the check-driven dynamic race detection engine.
type Detector struct {
	interp.NopHook
	cfg Config

	clk clocks

	fps []*footprint.Footprint[*interp.Array]

	// vs holds the read vectors of every read-shared shadow state.
	vs shadow.Vectors

	// Field and fine array shadows, registered only under DebugCensus
	// for its walk (the run path never iterates them).  heldStates
	// counts the states their slices hold, for HeldBytes.
	objShadows []*objShadow
	arrFine    []*fineArray
	heldStates int
	// arrComp lists every compressed array shadow, for ArrayModes.
	arrComp []*shadow.ArrayShadow

	// sites caches per-check-site resolution, indexed by
	// interp.FieldCheck.Index: the proxy groups a site touches and the
	// dense shadow slot interned for each group.  Resolving once per
	// site removes the GroupsOf call and all string work from the
	// per-event path.
	sites    []fieldSite
	slotIdx  map[string]int
	slotKeys []string // slot → group key, for descriptions

	races    []Race
	raceKeys map[raceKey]bool

	obs Observer

	Stats Stats
}

// fieldSite is the once-per-site resolution of a field check: the
// distinct proxy-group keys it touches (first-occurrence order, exactly
// proxy.GroupsOf) and their interned shadow slots.
type fieldSite struct {
	slots []int
}

// raceKey is the comparable dedup key for reported races — the struct
// equivalent of the old formatted description ("Class#ID.group" /
// "array#id[lo..hi:step]") without the Sprintf on the hot path.  Object
// IDs are globally unique, so (objID, slot) identifies a field group;
// array races are keyed by the exact committed range.
type raceKey struct {
	objID   int // -1 for array races
	slot    int
	arrayID int // -1 for field races
	lo, hi  int
	step    int
}

type objShadow struct {
	// states holds one shadow state per interned field-group slot,
	// indexed by the detector-wide slot id and grown on demand.
	// Entries the object never touched stay zero and are excluded from
	// the census (State.Untouched), mirroring the absent map entries of
	// the former map[string]*State representation.
	states []shadow.State
}

type fineArray struct {
	states []shadow.State
}

// New creates a detector with the given configuration.
func New(cfg Config) *Detector {
	d := &Detector{
		cfg:      cfg,
		slotIdx:  map[string]int{},
		raceKeys: map[raceKey]bool{},
	}
	d.clk.meter = d
	d.clk.fast = !cfg.DisableFastPaths
	d.clk.lockHits = &d.Stats.Fast.LockOwnerHits
	return d
}

// AddWords implements shadow.Meter: it applies one word-count delta to
// the running census and updates the peak.  Deltas arrive from the
// clock table, the compressed array shadows, and the detector's own
// state transitions; negative deltas (read-vector deflation) use the
// two's-complement wrap of the unsigned add — the running total never
// goes below zero.
func (d *Detector) AddWords(delta int) {
	d.Stats.ShadowWords += uint64(delta)
	if d.Stats.ShadowWords > d.Stats.PeakWords {
		d.Stats.PeakWords = d.Stats.ShadowWords
	}
}

// Races returns the deduplicated race reports.
func (d *Detector) Races() []Race { return d.races }

// RaceCount returns the number of distinct races found.
func (d *Detector) RaceCount() int { return len(d.races) }

func (d *Detector) fp(t int) *footprint.Footprint[*interp.Array] {
	for len(d.fps) <= t {
		d.fps = append(d.fps, footprint.New[*interp.Array]())
	}
	return d.fps[t]
}

// ---------------------------------------------------------------------------
// Synchronization events
// ---------------------------------------------------------------------------

// Fork implements interp.Hook.
func (d *Detector) Fork(parent, child int) {
	d.sync(parent)
	d.clk.fork(parent, child)
}

// ThreadEnd implements interp.Hook.
func (d *Detector) ThreadEnd(t int) {
	d.sync(t)
	d.clk.end(t)
}

// Join implements interp.Hook.
func (d *Detector) Join(parent, child int) {
	d.sync(parent)
	d.clk.join(parent, child)
}

// Acquire implements interp.Hook.
func (d *Detector) Acquire(t int, lock *interp.Object) {
	d.sync(t)
	d.clk.acquire(t, lock)
}

// Release implements interp.Hook.
func (d *Detector) Release(t int, lock *interp.Object) {
	d.sync(t)
	d.clk.release(t, lock)
}

// VolRead implements interp.Hook.
func (d *Detector) VolRead(t int, o *interp.Object, f string) {
	d.sync(t)
	d.clk.volRead(t, o, f)
}

// VolWrite implements interp.Hook.
func (d *Detector) VolWrite(t int, o *interp.Object, f string) {
	d.sync(t)
	d.clk.volWrite(t, o, f)
}

// Finish implements interp.Hook.
func (d *Detector) Finish() {
	for t := range d.fps {
		d.commit(t)
	}
	if d.cfg.DebugCensus {
		d.verifyCensus()
	}
}

// sync commits the thread's pending footprint (the deferred checks
// belong to the epoch before the synchronization).  Space accounting is
// incremental — no sampling happens here; under DebugCensus the
// incremental totals are cross-checked against a full walk.
func (d *Detector) sync(t int) {
	d.Stats.SyncOps++
	if d.cfg.Footprints {
		d.commit(t)
	}
	if d.cfg.DebugCensus {
		d.verifyCensus()
	}
}

func (d *Detector) commit(t int) {
	if t >= len(d.fps) || !d.fps[t].Pending() {
		return
	}
	now := d.clk.now(t)
	arrays, entries := 0, 0
	var lastArray *interp.Array
	d.fps[t].Drain(func(a *interp.Array, e footprint.Entry) {
		sh := d.compShadow(a)
		before := sh.Mode()
		refsBefore := sh.Refinements
		promosBefore, demosBefore := sh.Promotions, sh.Demotions
		races, ops := sh.Commit(e.Write, t, now, int(e.Lo), int(e.Hi), e.Step, e.Pos.Unpack())
		d.Stats.ShadowOps += ops
		d.Stats.Refinements += sh.Refinements - refsBefore
		d.Stats.Fast.ReadPromotions += sh.Promotions - promosBefore
		d.Stats.Fast.ReadDemotions += sh.Demotions - demosBefore
		for _, r := range races {
			d.reportArrayRace(r, a, int(e.Lo), int(e.Hi), e.Step)
		}
		if d.obs != nil {
			if after := sh.Mode(); after != before {
				d.obs.ArrayRefinement(t, a.ID, before.String(), after.String())
			}
			entries++
			if a != lastArray {
				arrays++
				lastArray = a
			}
		}
	})
	if d.obs != nil && entries > 0 {
		d.obs.FootprintCommit(t, arrays, entries)
	}
	d.Stats.FootprintOps += d.fps[t].AppendOps
	d.fps[t].AppendOps = 0
}

// ---------------------------------------------------------------------------
// Check events
// ---------------------------------------------------------------------------

// site returns the cached per-site resolution for fc, computing it on
// first encounter via siteSlow: the site's field list is mapped through
// the proxy table (one GroupsOf per site, not per event) and each
// distinct group key is interned to a dense shadow slot.  The resolved
// case is branch-only so the accessor inlines into the check hot path.
func (d *Detector) site(fc *interp.FieldCheck) *fieldSite {
	if fc.Index < len(d.sites) {
		if s := &d.sites[fc.Index]; s.slots != nil {
			return s
		}
	}
	return d.siteSlow(fc)
}

func (d *Detector) siteSlow(fc *interp.FieldCheck) *fieldSite {
	for len(d.sites) <= fc.Index {
		d.sites = append(d.sites, fieldSite{})
	}
	s := &d.sites[fc.Index]
	keys := fc.Fields
	if d.cfg.Proxies != nil {
		keys = d.cfg.Proxies.GroupsOf(fc.Fields)
	}
	s.slots = make([]int, len(keys))
	for i, k := range keys {
		s.slots[i] = d.slotOf(k)
	}
	return s
}

// slotOf interns a field-group key to a dense detector-wide slot index.
func (d *Detector) slotOf(key string) int {
	if i, ok := d.slotIdx[key]; ok {
		return i
	}
	i := len(d.slotKeys)
	d.slotIdx[key] = i
	d.slotKeys = append(d.slotKeys, key)
	return i
}

// CheckField implements interp.Hook: one shadow operation per proxy
// group touched by the (possibly coalesced) check.  The first position
// of the (sorted) position set is the representative access site for
// provenance.  The no-race fast path does no string work and no
// allocation: group resolution is cached per site and shadow states
// live in a slot-indexed slice.
//
// Unless DisableFastPaths is set, State.Access takes the same-epoch and
// ownership shortcuts (SmartTrack-style) before the vector-clock
// protocol; the same-epoch test is inlined here so that a hit costs one
// comparison and no call.  Every path counts as a shadow operation —
// the ShadowOps column of the deterministic reports must not depend on
// which path handled the event.
func (d *Detector) CheckField(t int, write bool, o *interp.Object, fc *interp.FieldCheck) {
	site := d.site(fc)
	sh := d.objShadow(o)
	fast := !d.cfg.DisableFastPaths
	now := d.clk.now(t)
	e := now.Epoch(t)
	for _, slot := range site.slots {
		if len(sh.states) <= slot {
			// Size for every slot interned so far in one step; slots
			// interned later grow it again.
			c := cap(sh.states)
			sh.states = append(sh.states, make([]shadow.State, len(d.slotKeys)-len(sh.states))...)
			d.heldStates += cap(sh.states) - c
		}
		st := &sh.states[slot]
		if fast && st.SameEpoch(write, e) {
			d.count(write, shadow.SameEpoch, 0)
			continue
		}
		if st.Untouched() {
			// First touch charges the state's two base words; afterwards
			// only read-vector growth and deflation move the census.
			d.AddWords(2)
		}
		r, how, dw := st.Access(&d.vs, write, t, now, firstPos(fc.Poss), fast)
		d.count(write, how, dw)
		if r != nil {
			d.reportFieldRace(r, o, slot)
		}
		if how == shadow.Promoted && d.obs != nil {
			d.obs.ReadShared(t, fmt.Sprintf("%s#%d.%s", o.Class.Name, o.ID, d.slotKeys[slot]))
		}
	}
}

// CheckRange implements interp.Hook.
func (d *Detector) CheckRange(t int, write bool, a *interp.Array, lo, hi, step int, poss []bfj.Pos) {
	pos := firstPos(poss)
	if d.cfg.Footprints {
		d.fp(t).Add(a, lo, hi, step, write, pos)
		return
	}
	// Fine-grained mode (FT/RC): one shadow location per element, with
	// the same shortcuts as CheckField.
	sh := d.fineShadow(a)
	fast := !d.cfg.DisableFastPaths
	now := d.clk.now(t)
	e := now.Epoch(t)
	for i := lo; i < hi; i += step {
		st := &sh.states[i]
		if fast && st.SameEpoch(write, e) {
			d.count(write, shadow.SameEpoch, 0)
			continue
		}
		r, how, dw := st.Access(&d.vs, write, t, now, pos, fast)
		d.count(write, how, dw)
		if r != nil {
			d.reportArrayRace(r, a, i, i+1, 1)
		}
	}
}

// count folds one State.Access result into the run's counters: every
// access is one shadow operation, a shortcut or a read-metadata
// transition bumps its FastPathStats counter, and dw moves the census.
func (d *Detector) count(write bool, step shadow.Step, dw int) {
	d.Stats.ShadowOps++
	f := &d.Stats.Fast
	switch step {
	case shadow.SameEpoch:
		if write {
			f.SameEpochWrites++
		} else {
			f.SameEpochReads++
		}
	case shadow.Owned:
		if write {
			f.OwnedWrites++
		} else {
			f.OwnedReads++
		}
	case shadow.Promoted:
		f.ReadPromotions++
	case shadow.Demoted:
		f.ReadDemotions++
	}
	if dw != 0 {
		d.AddWords(dw)
	}
}

// firstPos picks the representative position of a check's position set
// (the sets are sorted, so this is the earliest covered access site —
// pinned by instrument's TestCoalescedCheckPositionsSorted).
func firstPos(poss []bfj.Pos) bfj.Pos {
	if len(poss) > 0 {
		return poss[0]
	}
	return bfj.Pos{}
}

// objShadow returns the object's field shadow, installing one on first
// touch via objShadowSlow.  The installed case is a single type
// assertion so the accessor inlines into the check hot path.
func (d *Detector) objShadow(o *interp.Object) *objShadow {
	if s, ok := o.Shadow.(*objShadow); ok {
		return s
	}
	return d.objShadowSlow(o)
}

func (d *Detector) objShadowSlow(o *interp.Object) *objShadow {
	if pair, ok := o.Shadow.(*shadowPair); ok && pair.obj != nil {
		return pair.obj
	}
	s := &objShadow{}
	switch cur := o.Shadow.(type) {
	case *shadowPair:
		cur.obj = s
	case *lockShadow:
		o.Shadow = &shadowPair{lock: cur, obj: s}
	default:
		o.Shadow = s
	}
	if d.cfg.DebugCensus {
		d.objShadows = append(d.objShadows, s)
	}
	return s
}

func (d *Detector) fineShadow(a *interp.Array) *fineArray {
	if s, ok := a.Shadow.(*fineArray); ok {
		return s
	}
	s := &fineArray{states: make([]shadow.State, a.Len())}
	a.Shadow = s
	if d.cfg.DebugCensus {
		d.arrFine = append(d.arrFine, s)
	}
	d.heldStates += a.Len()
	// Fine shadows allocate all element states eagerly; the census
	// charges them at creation (two words each), matching the walk.
	d.AddWords(2 * a.Len())
	return s
}

func (d *Detector) compShadow(a *interp.Array) *shadow.ArrayShadow {
	if s, ok := a.Shadow.(*shadow.ArrayShadow); ok {
		return s
	}
	s := shadow.NewArrayShadow(a.Len(), &d.vs)
	s.SetMeter(d)
	s.Fast = !d.cfg.DisableFastPaths
	a.Shadow = s
	d.arrComp = append(d.arrComp, s)
	d.AddWords(s.Words())
	return s
}

// ---------------------------------------------------------------------------
// Race reporting
// ---------------------------------------------------------------------------

func (d *Detector) reportFieldRace(r *shadow.Race, o *interp.Object, slot int) {
	key := raceKey{objID: o.ID, slot: slot, arrayID: -1}
	if d.raceKeys[key] {
		return
	}
	d.raceKeys[key] = true
	group := d.slotKeys[slot]
	desc := fmt.Sprintf("%s#%d.%s", o.Class.Name, o.ID, group)
	d.races = append(d.races, Race{
		Desc: desc, PrevTID: r.PrevTID, CurTID: r.CurTID,
		PrevPos: r.PrevPos, CurPos: r.CurPos, PrevWrite: r.PrevW, CurWrite: r.IsWrite,
		ObjID: o.ID, Field: group, ArrayID: -1, ClassTag: o.Class.Name,
	})
}

// reportArrayRace deduplicates by the exact committed range
// (array, lo, hi, step).  This key is deliberately range-exact, not
// element-exact: adaptive refinement can re-report one underlying racy
// element under several overlapping committed ranges (e.g. a coarse
// [0..100:1] commit and a later fine [10..11:1] commit both racing on
// element 10 produce two reports).  Collapsing overlapping ranges would
// require per-element attribution that the compressed representations
// deliberately avoid, and would change the deterministic race counts
// the benchmark tables pin — so the behavior is documented and pinned
// by TestOverlappingRangeDedup instead.
func (d *Detector) reportArrayRace(r *shadow.Race, a *interp.Array, lo, hi, step int) {
	key := raceKey{objID: -1, slot: -1, arrayID: a.ID, lo: lo, hi: hi, step: step}
	if d.raceKeys[key] {
		return
	}
	d.raceKeys[key] = true
	desc := fmt.Sprintf("array#%d[%d..%d:%d]", a.ID, lo, hi, step)
	d.races = append(d.races, Race{
		Desc: desc, PrevTID: r.PrevTID, CurTID: r.CurTID,
		PrevPos: r.PrevPos, CurPos: r.CurPos, PrevWrite: r.PrevW, CurWrite: r.IsWrite,
		ObjID: -1, ArrayID: a.ID, Lo: lo, Hi: hi, Step: step,
	})
}

// ---------------------------------------------------------------------------
// Debug census cross-check
// ---------------------------------------------------------------------------

// walkCensus recomputes shadow memory and refinements by walking every
// registered shadow container — the algorithm the sampled census used
// before accounting became incremental.  Only DebugCensus and tests
// call it; the field and fine array shadows are registered only under
// DebugCensus.
func (d *Detector) walkCensus() (words uint64, refinements int) {
	for _, s := range d.objShadows {
		for i := range s.states {
			if st := &s.states[i]; !st.Untouched() {
				words += uint64(st.Words(&d.vs))
			}
		}
	}
	for _, s := range d.arrFine {
		for i := range s.states {
			words += uint64(s.states[i].Words(&d.vs))
		}
	}
	for _, s := range d.arrComp {
		words += uint64(s.WalkWords())
		refinements += s.Refinements
	}
	words += uint64(d.clk.words())
	return words, refinements
}

// verifyCensus panics if the incremental census disagrees with a full
// walk.  The panic is deliberately not a recoverable interpreter error:
// a mismatch is a detector bug, and the interpreter's thread recovery
// only swallows runtime and abort signals, so the failure surfaces
// loudly in tests and the difftest sweep.
func (d *Detector) verifyCensus() {
	words, refs := d.walkCensus()
	if words != d.Stats.ShadowWords || refs != d.Stats.Refinements {
		panic(fmt.Sprintf("detector: census mismatch: incremental words=%d refinements=%d, walked words=%d refinements=%d",
			d.Stats.ShadowWords, d.Stats.Refinements, words, refs))
	}
}

// HeldBytes reports the bytes the detector's shadow structures hold,
// computed from their lengths and capacities: shadow states (field,
// fine and compressed array shadows), the read-vector table, footprint
// entries and vector clocks.  Unlike the census it counts what the
// structures allocate — positions and spare capacity included — so it
// measures the census against the memory behind it.  It enters no
// signature or report.
func (d *Detector) HeldBytes() uint64 {
	b := d.heldStates*shadow.StateBytes + d.vs.HeldBytes() + d.clk.heldBytes()
	for _, s := range d.arrComp {
		b += s.HeldBytes()
	}
	for _, f := range d.fps {
		b += f.HeldBytes()
	}
	return uint64(b)
}

// ArrayModes summarizes final array shadow representations (for
// diagnostics and ablation reporting).
func (d *Detector) ArrayModes() map[string]int {
	out := map[string]int{}
	for _, s := range d.arrComp {
		out[s.Mode().String()]++
	}
	return out
}

// SortedRaceDescs returns race descriptions sorted (stable test output).
func (d *Detector) SortedRaceDescs() []string {
	out := make([]string, len(d.races))
	for i, r := range d.races {
		out[i] = r.Desc
	}
	sort.Strings(out)
	return out
}
