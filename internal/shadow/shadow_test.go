package shadow

import (
	"math/rand"
	"testing"
	"testing/quick"

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

// read and write run the protocol, without shortcuts, for one access
// of thread t at vector time now.
func read(s *State, t int, now vc.VC) *Race {
	r, _, _ := s.Access(false, t, now, bfj.Pos{}, false)
	return r
}

func write(s *State, t int, now vc.VC) *Race {
	r, _, _ := s.Access(true, t, now, bfj.Pos{}, false)
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
			slow := ft
			slow.RV = ft.RV.Copy()
			slowRace, _, _ := slow.Access(write, tid, now, pos, false)
			r, how, _ := ft.Access(write, tid, now, pos, fast)
			if r != nil {
				ftRace = true
			}
			if how == SameEpoch || how == Owned {
				shortcuts[how]++
				if slowRace != nil || !sameState(&ft, &slow) {
					t.Logf("seed %d step %d: shortcut %d left %+v, protocol %+v (race %+v)", seed, step, how, ft, slow, slowRace)
					return false
				}
			}
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
// vector and positions.
func sameState(a, b *State) bool {
	return a.W == b.W && a.R == b.R && a.wpos == b.wpos && a.rpos == b.rpos &&
		a.RV.String() == b.RV.String()
}

// ---------------------------------------------------------------------------
// Array shadow compression
// ---------------------------------------------------------------------------

func TestArrayShadowStaysCoarseOnWholeArrayCommits(t *testing.T) {
	a := NewArrayShadow(1000)
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
	a := NewArrayShadow(100)
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
	a := NewArrayShadow(1024)
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
	a := NewArrayShadow(64)
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
	a := NewArrayShadow(4096)
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
	a := NewArrayShadow(10)
	if _, ops := a.Commit(true, 0, mkVC(1, 0), -5, 20, 1, bfj.Pos{}); ops == 0 {
		t.Error("clamped commit should still perform ops")
	}
	if _, ops := a.Commit(true, 0, mkVC(1, 0), 8, 3, 1, bfj.Pos{}); ops != 0 {
		t.Error("empty range should be a no-op")
	}
	// A strided range keeps its stride when its lower bound is clamped:
	// [-1,10):2 is the odd elements, so thread 1's write of 0 is apart.
	a = NewArrayShadow(10)
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
	a := NewArrayShadow(10)
	if races, _ := a.Commit(true, 0, mkVC(1, 0), 2, 8, 3, bfj.Pos{}); len(races) != 0 {
		t.Fatalf("first commit raced: %v", races)
	}
	if races, _ := a.Commit(true, 1, mkVC(0, 1), 8, 9, 1, bfj.Pos{}); len(races) != 0 {
		t.Errorf("element 8, outside [2,8):3, raced (mode %v)", a.Mode())
	}

	a = NewArrayShadow(10)
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
		a := NewArrayShadow(n)
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
		a := NewArrayShadow(n)
		cut := 8 + rng.Intn(48)
		r1, _ := a.Commit(true, 0, mkVC(1, 0), 0, cut, 1, bfj.Pos{})
		r2, _ := a.Commit(true, 1, mkVC(0, 1), cut, n, 1, bfj.Pos{})
		return len(r1) == 0 && len(r2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
