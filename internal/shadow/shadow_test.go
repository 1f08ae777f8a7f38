package shadow

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"bigfoot/internal/bfj"
	"bigfoot/internal/vc"
)

// mkVC builds a vector clock from components.
func mkVC(cs ...uint64) vc.VC {
	v := vc.New(len(cs))
	for i, c := range cs {
		v.Set(i, c)
	}
	return v
}

// testVectors holds the read vectors of the single-location tests'
// states.
var testVectors Vectors

// read and write run the protocol, without shortcuts, for one access
// of thread t at vector time now.
func read(s *State, t int, now vc.VC) *Race {
	r, _, _ := s.Access(&testVectors, false, t, now, bfj.Pos{}, false)
	return r
}

func write(s *State, t int, now vc.VC) *Race {
	r, _, _ := s.Access(&testVectors, true, t, now, bfj.Pos{}, false)
	return r
}

func TestFastTrackWriteWriteRace(t *testing.T) {
	var s State
	// Thread 0 writes at time [1,0]; thread 1 writes at [0,1] — racy.
	if r := write(&s, 0, mkVC(1, 0)); r != nil {
		t.Fatalf("first write raced: %+v", r)
	}
	r := write(&s, 1, mkVC(0, 1))
	if r == nil {
		t.Fatal("concurrent write-write race missed")
	}
	if r.PrevTID != 0 || r.CurTID != 1 || !r.IsWrite {
		t.Errorf("race misattributed: %+v", r)
	}
}

func TestFastTrackOrderedWritesNoRace(t *testing.T) {
	var s State
	if r := write(&s, 0, mkVC(1, 0)); r != nil {
		t.Fatal(r)
	}
	// Thread 1 has synchronized with thread 0's time 1.
	if r := write(&s, 1, mkVC(1, 1)); r != nil {
		t.Errorf("ordered write reported as race: %+v", r)
	}
}

func TestFastTrackReadWriteRace(t *testing.T) {
	var s State
	if r := read(&s, 0, mkVC(1, 0)); r != nil {
		t.Fatal(r)
	}
	r := write(&s, 1, mkVC(0, 1))
	if r == nil {
		t.Fatal("read-write race missed")
	}
	if r.PrevW {
		t.Error("prior access should be a read")
	}
}

func TestFastTrackWriteReadRace(t *testing.T) {
	var s State
	if r := write(&s, 0, mkVC(1, 0)); r != nil {
		t.Fatal(r)
	}
	if r := read(&s, 1, mkVC(0, 1)); r == nil {
		t.Fatal("write-read race missed")
	}
}

func TestFastTrackReadSharedInflation(t *testing.T) {
	var s State
	// Two concurrent reads are fine and inflate to a read vector.
	if r := read(&s, 0, mkVC(1, 0)); r != nil {
		t.Fatal(r)
	}
	if r := read(&s, 1, mkVC(0, 1)); r != nil {
		t.Fatalf("concurrent reads are not a race: %+v", r)
	}
	if !s.shared() {
		t.Fatal("state should be read-shared")
	}
	// A write ordered after only one of them races with the other.
	if r := write(&s, 0, mkVC(2, 0)); r == nil {
		t.Fatal("write racing with shared read missed")
	}
}

func TestFastTrackReadSharedOrderedWrite(t *testing.T) {
	var s State
	read(&s, 0, mkVC(1, 0))
	read(&s, 1, mkVC(0, 1))
	// Writer synchronized with both readers.
	if r := write(&s, 0, mkVC(2, 1)); r != nil {
		t.Errorf("ordered write after shared reads raced: %+v", r)
	}
	if s.shared() {
		t.Error("write should deflate the read vector")
	}
}

func TestSameEpochFastPath(t *testing.T) {
	var s State
	now := mkVC(3, 0)
	write(&s, 0, now)
	if r := write(&s, 0, now); r != nil {
		t.Errorf("same-epoch write raced: %+v", r)
	}
	s2 := State{}
	read(&s2, 0, now)
	if r := read(&s2, 0, now); r != nil {
		t.Errorf("same-epoch read raced: %+v", r)
	}
}

// Property: FastTrack agrees with a naive full-history checker on
// random single-location access sequences with random (monotone)
// clocks, with Access's shortcuts and demotion on and off.  Whenever a
// shortcut decides an access, the state must equal what the protocol
// leaves on a copy.
func TestFastTrackMatchesNaiveDetector(t *testing.T) {
	type access struct {
		tid   int
		write bool
		v     vc.VC
	}
	shortcuts := map[Step]int{}
	run := func(seed int64, fast bool) bool {
		rng := rand.New(rand.NewSource(seed))
		nThreads := 2 + rng.Intn(3)
		clocks := make([]vc.VC, nThreads)
		for i := range clocks {
			clocks[i] = vc.New(nThreads)
			clocks[i].Set(i, 1)
		}
		var trace []access
		var vs Vectors
		var ft State
		ftRace := false
		naiveRace := false
		for step := 0; step < 40; step++ {
			tid := rng.Intn(nThreads)
			// Occasionally synchronize two threads (join clocks).
			if rng.Intn(4) == 0 {
				other := rng.Intn(nThreads)
				clocks[tid].Join(clocks[other])
				clocks[other].Tick(other)
			}
			write := rng.Intn(2) == 0
			now := clocks[tid].Copy()
			a := access{tid, write, now}
			// Naive: compare against every previous conflicting access.
			for _, p := range trace {
				if p.tid == tid || (!p.write && !write) {
					continue
				}
				if !p.v.LEQ(now) {
					naiveRace = true
				}
			}
			trace = append(trace, a)
			pos := bfj.Pos{Line: step + 1}
			slow := vs.copyOf(ft)
			slowRace, _, _ := slow.Access(&vs, write, tid, now, pos, false)
			r, how, _ := ft.Access(&vs, write, tid, now, pos, fast)
			if r != nil {
				ftRace = true
			}
			if how == SameEpoch || how == Owned {
				shortcuts[how]++
				if slowRace != nil || !sameState(&vs, &ft, &slow) {
					t.Logf("seed %d step %d: shortcut %d left %+v, protocol %+v (race %+v)", seed, step, how, ft, slow, slowRace)
					return false
				}
			}
			vs.drop(&slow)
			// Tick only sometimes, so a thread also repeats its epoch.
			if rng.Intn(2) == 0 {
				clocks[tid].Tick(tid)
			}
		}
		if ftRace != naiveRace {
			t.Logf("seed %d fast=%v: fasttrack=%v naive=%v", seed, fast, ftRace, naiveRace)
		}
		return ftRace == naiveRace
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if shortcuts[SameEpoch] == 0 || shortcuts[Owned] == 0 {
		t.Errorf("shortcuts never taken: %v", shortcuts)
	}
}

// sameState reports whether two states record the same epochs, read
// vector contents and positions; read-shared states compare their
// vectors, not their slots.
func sameState(vs *Vectors, a, b *State) bool {
	if a.shared() || b.shared() {
		return a.shared() && b.shared() && a.W == b.W && a.wpos == b.wpos && a.rpos == b.rpos &&
			vs.vs[a.slot()].String() == vs.vs[b.slot()].String()
	}
	return a.W == b.W && a.R == b.R && a.wpos == b.wpos && a.rpos == b.rpos
}

// ---------------------------------------------------------------------------
// Array shadow compression
// ---------------------------------------------------------------------------

func TestArrayShadowStaysCoarseOnWholeArrayCommits(t *testing.T) {
	a := NewArrayShadow(1000, &Vectors{})
	races, ops := a.Commit(true, 0, mkVC(1, 0), 0, 1000, 1, bfj.Pos{})
	if len(races) != 0 || ops != 1 {
		t.Fatalf("whole-array commit: races=%v ops=%d", races, ops)
	}
	if a.Mode() != ModeCoarse {
		t.Errorf("mode = %v, want coarse", a.Mode())
	}
	if a.Words() > 4 {
		t.Errorf("coarse shadow should be tiny, words=%d", a.Words())
	}
}

func TestArrayShadowRefinesToBlocks(t *testing.T) {
	a := NewArrayShadow(100, &Vectors{})
	a.Commit(true, 0, mkVC(1, 0), 0, 100, 1, bfj.Pos{})
	_, ops := a.Commit(true, 0, mkVC(2, 0), 0, 50, 1, bfj.Pos{})
	if a.Mode() != ModeBlocks {
		t.Fatalf("mode = %v, want blocks", a.Mode())
	}
	if ops != 1 {
		t.Errorf("half-array commit after split should be 1 op, got %d", ops)
	}
	// Second half keeps its own state; a conflicting thread racing only
	// with [0,50) is detected there, not on [50,100).
	if races, _ := a.Commit(true, 1, mkVC(0, 1), 0, 50, 1, bfj.Pos{}); len(races) == 0 {
		t.Error("unordered write to refined segment should race")
	}
}

func TestArrayShadowStridedMode(t *testing.T) {
	a := NewArrayShadow(1024, &Vectors{})
	// Two threads commit interleaved residues, full columns.
	if races, ops := a.Commit(true, 0, mkVC(1, 0), 0, 1024, 2, bfj.Pos{}); len(races) != 0 || ops != 1 {
		t.Fatalf("first strided commit: races=%v ops=%d", races, ops)
	}
	if a.Mode() != ModeStrided {
		t.Fatalf("mode = %v, want strided", a.Mode())
	}
	if races, ops := a.Commit(true, 1, mkVC(0, 1), 1, 1024, 2, bfj.Pos{}); len(races) != 0 || ops != 1 {
		t.Fatalf("disjoint residue commit: races=%v ops=%d", races, ops)
	}
	// The same residue from an unordered thread races.
	if races, _ := a.Commit(true, 1, mkVC(0, 2), 0, 1024, 2, bfj.Pos{}); len(races) == 0 {
		t.Error("same-column unordered commit should race")
	}
}

func TestArrayShadowRevertsToFine(t *testing.T) {
	a := NewArrayShadow(64, &Vectors{})
	a.Commit(true, 0, mkVC(1, 0), 0, 64, 2, bfj.Pos{}) // strided
	a.Commit(true, 0, mkVC(2, 0), 3, 17, 1, bfj.Pos{}) // inconsistent: revert
	if a.Mode() != ModeFine {
		t.Fatalf("mode = %v, want fine", a.Mode())
	}
	// Fine-grained still detects races precisely per element.
	if races, _ := a.Commit(true, 1, mkVC(0, 1), 3, 4, 1, bfj.Pos{}); len(races) == 0 {
		t.Error("per-element race missed after reversion")
	}
	// Element 21 is odd and outside [3,17): never touched by thread 0.
	if races, _ := a.Commit(true, 1, mkVC(0, 2), 21, 22, 1, bfj.Pos{}); len(races) != 0 {
		t.Error("untouched element misreported")
	}
}

func TestArrayShadowBlocksDegenerateToFine(t *testing.T) {
	a := NewArrayShadow(4096, &Vectors{})
	now := mkVC(1, 0)
	// Many unaligned commits exceed the block budget.
	for i := 0; i < maxBlockSegments+10; i++ {
		a.Commit(true, 0, now, i*13, i*13+5, 1, bfj.Pos{})
	}
	if a.Mode() != ModeFine {
		t.Errorf("mode = %v, want fine after segment explosion", a.Mode())
	}
}

func TestArrayShadowClampsBounds(t *testing.T) {
	a := NewArrayShadow(10, &Vectors{})
	if _, ops := a.Commit(true, 0, mkVC(1, 0), -5, 20, 1, bfj.Pos{}); ops == 0 {
		t.Error("clamped commit should still perform ops")
	}
	if _, ops := a.Commit(true, 0, mkVC(1, 0), 8, 3, 1, bfj.Pos{}); ops != 0 {
		t.Error("empty range should be a no-op")
	}
	// A strided range keeps its stride when its lower bound is clamped:
	// [-1,10):2 is the odd elements, so thread 1's write of 0 is apart.
	a = NewArrayShadow(10, &Vectors{})
	a.Commit(true, 0, mkVC(1, 0), -1, 10, 2, bfj.Pos{})
	if races, _ := a.Commit(true, 1, mkVC(0, 1), 0, 1, 1, bfj.Pos{}); len(races) != 0 {
		t.Error("clamping [-1,10):2 moved it onto the even elements")
	}
}

// TestArrayShadowShortColumn: [2,8):3 covers 2 and 5, but the residue
// column of 2 modulo 3 in ten elements is 2, 5 and 8.  The commit must
// not claim element 8 for its thread, whether it lands on a coarse
// shadow or on a strided one of the same stride.
func TestArrayShadowShortColumn(t *testing.T) {
	a := NewArrayShadow(10, &Vectors{})
	if races, _ := a.Commit(true, 0, mkVC(1, 0), 2, 8, 3, bfj.Pos{}); len(races) != 0 {
		t.Fatalf("first commit raced: %v", races)
	}
	if races, _ := a.Commit(true, 1, mkVC(0, 1), 8, 9, 1, bfj.Pos{}); len(races) != 0 {
		t.Errorf("element 8, outside [2,8):3, raced (mode %v)", a.Mode())
	}

	a = NewArrayShadow(10, &Vectors{})
	a.Commit(true, 0, mkVC(1, 0), 0, 10, 3, bfj.Pos{}) // a whole column: strided
	if a.Mode() != ModeStrided {
		t.Fatalf("mode = %v, want strided", a.Mode())
	}
	a.Commit(true, 0, mkVC(2, 0), 2, 8, 3, bfj.Pos{})
	if races, _ := a.Commit(true, 1, mkVC(0, 1), 8, 9, 1, bfj.Pos{}); len(races) != 0 {
		t.Errorf("element 8, outside [2,8):3, raced in strided mode")
	}
}

// Property: regardless of the adaptive representation's refinement
// history, two same-element commits by unordered threads are always
// detected.
func TestArrayShadowNeverMissesElementRace(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32 + rng.Intn(64)
		a := NewArrayShadow(n, &Vectors{})
		// Random refinement-provoking history by thread 0.
		now0 := mkVC(1, 0)
		for i := 0; i < 6; i++ {
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			step := 1 + rng.Intn(3)
			a.Commit(rng.Intn(2) == 0, 0, now0, lo, hi, step, bfj.Pos{})
		}
		// Thread 0 writes element k; unordered thread 1 writes it too.
		k := rng.Intn(n)
		a.Commit(true, 0, mkVC(2, 0), k, k+1, 1, bfj.Pos{})
		races, _ := a.Commit(true, 1, mkVC(0, 1), k, k+1, 1, bfj.Pos{})
		return len(races) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: compressed modes never report a race for disjoint,
// perfectly partitioned block commits by unordered threads.
func TestArrayShadowNoFalseAlarmOnDisjointBlocks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		a := NewArrayShadow(n, &Vectors{})
		cut := 8 + rng.Intn(48)
		r1, _ := a.Commit(true, 0, mkVC(1, 0), 0, cut, 1, bfj.Pos{})
		r2, _ := a.Commit(true, 1, mkVC(0, 1), cut, n, 1, bfj.Pos{})
		return len(r1) == 0 && len(r2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Compact state: size, the read-vector table, refinement copies
// ---------------------------------------------------------------------------

// TestStateIsCompact pins the State layout: 32 bytes, no pointer, so a
// slice of states is memory the garbage collector never scans.
func TestStateIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(State{}); n != 32 {
		t.Errorf("State takes %d bytes, want 32", n)
	}
	var noPointers func(reflect.Type) bool
	noPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !noPointers(typ.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return noPointers(typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return true
		}
		return false
	}
	if !noPointers(reflect.TypeOf(State{})) {
		t.Error("State holds a pointer, slice, map or interface")
	}
}

// TestChurnReusesOneSlot: promote → extend → demote cycles on one
// location take the slot the last demotion freed, with its storage, so
// the table stays at one slot and the cycle allocates nothing.
func TestChurnReusesOneSlot(t *testing.T) {
	var vs Vectors
	var s State
	// Threads 1 and 2 read concurrently; thread 3 has seen both reads.
	c1, c2, c3 := mkVC(0, 5, 0, 0), mkVC(0, 0, 5, 0), mkVC(0, 6, 6, 1)
	promos, demos := 0, 0
	count := func(step Step) {
		switch step {
		case Promoted:
			promos++
		case Demoted:
			demos++
		}
	}
	cycle := func() {
		_, step, _ := s.Access(&vs, false, 1, c1, bfj.Pos{}, true)
		count(step)
		_, step, _ = s.Access(&vs, false, 2, c2, bfj.Pos{}, true)
		count(step)
		_, step, _ = s.Access(&vs, false, 3, c3, bfj.Pos{}, true)
		count(step)
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("churn cycle allocates %v times, want 0", a)
	}
	if promos != 102 || demos != 102 {
		t.Errorf("102 cycles made %d promotions and %d demotions, want one each per cycle", promos, demos)
	}
	if n := vs.Slots(); n != 1 {
		t.Errorf("churn left %d slots in the table, want 1", n)
	}
}

// stateAt returns the state covering element i in a's representation.
func stateAt(a *ArrayShadow, i int) *State {
	switch a.mode {
	case ModeCoarse:
		return &a.coarse
	case ModeBlocks:
		j, found := slices.BinarySearch(a.bounds, i)
		if !found {
			j--
		}
		return &a.segs[j]
	case ModeStrided:
		return &a.strided[i%a.stride]
	default:
		return &a.fine[i]
	}
}

// liveStates returns the states of a's current representation.
func liveStates(a *ArrayShadow) []State {
	switch a.mode {
	case ModeCoarse:
		return []State{a.coarse}
	case ModeBlocks:
		return a.segs
	case ModeStrided:
		return a.strided
	default:
		return a.fine
	}
}

// TestRefinementCopiesVectors: refining a read-shared coarse, blocks or
// strided state gives every copy its own slot holding the same vector,
// and a later write to one element deflates that element's vector
// only.  Every commit below replays a recorded read at its own time, so
// no vector changes until the write.
func TestRefinementCopiesVectors(t *testing.T) {
	const n = 12
	r0, r1 := mkVC(1, 0, 0), mkVC(0, 1, 0)
	shared := func() (*ArrayShadow, *Vectors) {
		vs := &Vectors{}
		a := NewArrayShadow(n, vs)
		a.Commit(false, 0, r0, 0, n, 1, bfj.Pos{})
		a.Commit(false, 1, r1, 0, n, 1, bfj.Pos{})
		return a, vs
	}
	routes := []struct {
		name string
		mode ArrayMode
		// refine replays reads that refine a read-shared coarse shadow.
		refine func(a *ArrayShadow)
	}{
		{"coarse-to-blocks", ModeBlocks, func(a *ArrayShadow) {
			a.Commit(false, 0, r0, 4, 8, 1, bfj.Pos{})
		}},
		{"coarse-to-strided", ModeStrided, func(a *ArrayShadow) {
			a.Commit(false, 0, r0, 0, n, 3, bfj.Pos{})
		}},
		{"coarse-to-fine", ModeFine, func(a *ArrayShadow) {
			a.Commit(false, 0, r0, 1, 7, 2, bfj.Pos{})
		}},
		{"blocks-to-fine", ModeFine, func(a *ArrayShadow) {
			a.Commit(false, 0, r0, 4, 8, 1, bfj.Pos{})
			a.Commit(false, 1, r1, 1, 7, 2, bfj.Pos{})
		}},
		{"strided-to-fine", ModeFine, func(a *ArrayShadow) {
			a.Commit(false, 0, r0, 0, n, 3, bfj.Pos{})
			a.Commit(false, 1, r1, 2, 9, 1, bfj.Pos{})
		}},
	}
	// ownVectors checks that every read-shared state of a holds its own
	// slot, that each vector but the one covering skip reads [1 1], and
	// that the states refinements discarded freed theirs: the slots in
	// use are exactly the live states'.
	ownVectors := func(t *testing.T, a *ArrayShadow, vs *Vectors, skip *State) {
		t.Helper()
		seen := map[int]bool{}
		for i := range liveStates(a) {
			s := &liveStates(a)[i]
			if s == skip {
				continue
			}
			if !s.shared() {
				t.Fatalf("state %d of %v shadow is not read-shared", i, a.Mode())
			}
			if seen[s.slot()] {
				t.Fatalf("two states of the %v shadow share slot %d", a.Mode(), s.slot())
			}
			seen[s.slot()] = true
			if got := vs.vs[s.slot()].String(); got != "[1 1]" {
				t.Errorf("state %d of the %v shadow reads %s, want [1 1]", i, a.Mode(), got)
			}
		}
		if inUse := vs.Slots() - len(vs.free); inUse != len(seen) {
			t.Errorf("%d slots in use, %d read-shared states", inUse, len(seen))
		}
		if w := a.WalkWords(); w != a.Words() {
			t.Errorf("census %d, walk %d", a.Words(), w)
		}
	}
	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) {
			a, vs := shared()
			r.refine(a)
			if a.Mode() != r.mode {
				t.Fatalf("mode %v, want %v", a.Mode(), r.mode)
			}
			ownVectors(t, a, vs, nil)
			// Thread 2 writes element 5 after both reads: no race, and the
			// covering state's vector deflates.
			if races, _ := a.Commit(true, 2, mkVC(1, 1, 1), 5, 6, 1, bfj.Pos{}); len(races) != 0 {
				t.Fatalf("ordered write raced: %+v", races[0])
			}
			w := stateAt(a, 5)
			if w.shared() || w.W == 0 {
				t.Fatalf("written element's state %+v, want a write epoch and no vector", *w)
			}
			ownVectors(t, a, vs, w)
		})
	}
}

// TestPositionsPackToInt32: a race cites the earlier access's position
// at the edge of int32 exactly, and one past it as unknown.
func TestPositionsPackToInt32(t *testing.T) {
	for _, c := range []struct {
		pos, want bfj.Pos
	}{
		{bfj.Pos{Line: math.MaxInt32, Col: math.MaxInt32}, bfj.Pos{Line: math.MaxInt32, Col: math.MaxInt32}},
		{bfj.Pos{Line: math.MaxInt32 + 1, Col: 1}, bfj.Pos{}},
		{bfj.Pos{Line: 3, Col: math.MaxInt32 + 1}, bfj.Pos{}},
	} {
		var vs Vectors
		var s State
		s.Access(&vs, true, 0, mkVC(1, 0), c.pos, false)
		r, _, _ := s.Access(&vs, true, 1, mkVC(0, 1), bfj.Pos{Line: 9, Col: 9}, false)
		if r == nil {
			t.Fatal("concurrent writes did not race")
		}
		if r.PrevPos != c.want {
			t.Errorf("write at %v: race cites %v, want %v", c.pos, r.PrevPos, c.want)
		}
		if c.want == (bfj.Pos{}) && r.PrevPos.String() != "?" {
			t.Errorf("unknown position prints %q, want ?", r.PrevPos.String())
		}
	}
}

// TestCommitBlocksMatchesLinearScan: over random commit sequences, a
// blocks-mode commit adds the segment bounds a linear insertion adds
// and applies exactly the segments inside [lo,hi), in ascending order,
// as the linear scan it replaced found them.  Each apply stamps its
// segment with the commit's number, and every element must read the
// number of the last commit that covered it, so a split that copies
// the wrong segment fails too.
func TestCommitBlocksMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(120)
		a := NewArrayShadow(n, &Vectors{})
		a.toBlocks()
		ref := []int{0, n}
		last := make([]vc.Epoch, n) // element -> last commit covering it
		for op := 0; op < 40; op++ {
			lo := rng.Intn(n)
			hi := lo + 1
			if rng.Intn(3) == 0 {
				hi = lo + 1 + rng.Intn(n-lo)
			}
			// The reference: insert each new bound by a linear scan.
			for _, k := range []int{lo, hi} {
				if k > 0 && k < n && !slices.Contains(ref, k) {
					i := 0
					for ref[i] < k {
						i++
					}
					ref = slices.Insert(ref, i, k)
				}
			}
			var applied []*State
			stamp := vc.Epoch(op + 1)
			a.commitBlocks(func(s *State) {
				applied = append(applied, s)
				s.W = stamp
			}, lo, hi)
			if a.Mode() != ModeBlocks {
				break // past maxBlockSegments: the commit went fine-grained
			}
			for i := lo; i < hi; i++ {
				last[i] = stamp
			}
			for i := range last {
				if w := stateAt(a, i).W; w != last[i] {
					t.Fatalf("seed %d op %d: element %d reads commit %d, last covered by %d", seed, op, i, w, last[i])
				}
			}
			if !slices.Equal(a.bounds, ref) {
				t.Fatalf("seed %d op %d: bounds %v, linear insertion %v", seed, op, a.bounds, ref)
			}
			var want []*State
			for i := 0; i < len(a.segs); i++ {
				if a.bounds[i] >= lo && a.bounds[i+1] <= hi {
					want = append(want, &a.segs[i])
				}
			}
			if !slices.Equal(applied, want) {
				t.Fatalf("seed %d op %d: [%d,%d) applied %d segments, the linear scan %d or in another order", seed, op, lo, hi, len(applied), len(want))
			}
		}
	}
}
