package footprint

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"bigfoot/internal/bfj"
)

func collect(f *Footprint[int]) map[int][]Entry {
	out := map[int][]Entry{}
	f.Drain(func(id int, e Entry) { out[id] = append(out[id], e) })
	return out
}

func TestSequentialRunMerges(t *testing.T) {
	f := New[int]()
	for i := 0; i < 100; i++ {
		f.Add(1, i, i+1, 1, true, bfj.Pos{})
	}
	got := collect(f)
	if len(got[1]) != 1 {
		t.Fatalf("sequential singletons should merge to one entry, got %d", len(got[1]))
	}
	e := got[1][0]
	if e.Lo != 0 || e.Hi != 100 || e.Step != 1 || !e.Write {
		t.Errorf("merged entry: %+v", e)
	}
}

func TestStridedRunMerges(t *testing.T) {
	f := New[int]()
	for i := 0; i < 64; i += 2 {
		f.Add(3, i, i+1, 1, false, bfj.Pos{})
	}
	got := collect(f)
	if len(got[3]) != 1 {
		t.Fatalf("strided singletons should merge, got %v", got[3])
	}
	e := got[3][0]
	if e.Step != 2 || e.Lo != 0 || e.Hi != 63 {
		t.Errorf("strided entry: %+v", e)
	}
}

func TestKindsDoNotMerge(t *testing.T) {
	f := New[int]()
	f.Add(1, 0, 1, 1, true, bfj.Pos{})
	f.Add(1, 1, 2, 1, false, bfj.Pos{}) // read after write: different kind
	got := collect(f)
	if len(got[1]) != 2 {
		t.Errorf("read/write runs must stay separate: %v", got[1])
	}
}

func TestContainedRangeAbsorbed(t *testing.T) {
	f := New[int]()
	f.Add(1, 0, 50, 1, true, bfj.Pos{})
	f.Add(1, 10, 20, 1, true, bfj.Pos{})
	got := collect(f)
	if len(got[1]) != 1 {
		t.Errorf("contained range should be absorbed: %v", got[1])
	}
}

func TestDrainClearsAndPreservesOrder(t *testing.T) {
	f := New[int]()
	f.Add(5, 0, 1, 1, true, bfj.Pos{})
	f.Add(2, 0, 1, 1, true, bfj.Pos{})
	f.Add(5, 7, 8, 1, true, bfj.Pos{})
	var order []int
	f.Drain(func(id int, e Entry) { order = append(order, id) })
	// {0} and {7} on array 5 merge into one exact stride-7 entry, so
	// array 5 drains first (first touch), then array 2.
	if len(order) != 2 || order[0] != 5 || order[1] != 2 {
		t.Errorf("drain order: %v (want first-touch order 5,2)", order)
	}
	if f.Pending() {
		t.Error("drain should clear pending state")
	}
	// Reuse after drain.
	f.Add(9, 1, 2, 1, false, bfj.Pos{})
	if got := collect(f); len(got[9]) != 1 {
		t.Error("footprint unusable after drain")
	}
}

// TestSteadyStateEpochsDoNotAllocate: once a thread's epochs have sized
// the entry slices, Add/Drain cycles over the same arrays allocate
// nothing — drained slices are reused, not regrown from nil.
func TestSteadyStateEpochsDoNotAllocate(t *testing.T) {
	f := New[int]()
	epoch := 0
	cycle := func() {
		epoch++
		for k := 0; k < 8; k++ {
			id := (k*3 + epoch) % 8 // first-touch order moves every epoch
			switch k % 3 {
			case 0: // sequential run: merges into one entry
				for i := 0; i < 50; i++ {
					f.Add(id, i, i+1, 1, true, bfj.Pos{})
				}
			case 1: // scattered reads: one entry each
				for i := 0; i < 20; i++ {
					f.Add(id, 7*i, 7*i+3, 1, false, bfj.Pos{})
				}
			default: // strided singletons: merge into one stride
				for i := 0; i < 30; i += 2 {
					f.Add(id, i, i+1, 1, false, bfj.Pos{})
				}
			}
		}
		f.Drain(func(int, Entry) {})
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("steady-state Add/Drain cycle allocates %v times, want 0", a)
	}
	if f.Pending() || len(f.index) != 0 {
		t.Errorf("drained footprint keeps %d arrays in its index", len(f.index))
	}
}

func TestArraysListing(t *testing.T) {
	f := New[int]()
	f.Add(4, 0, 1, 1, true, bfj.Pos{})
	f.Add(8, 0, 1, 1, true, bfj.Pos{})
	var ids []int
	f.Drain(func(id int, e Entry) { ids = append(ids, id) })
	if len(ids) != 2 || ids[0] != 4 || ids[1] != 8 {
		t.Errorf("arrays: %v", ids)
	}
}

// Property: the index set covered by the drained entries equals the
// index set added, regardless of merge decisions.
func TestMergePreservesCoverage(t *testing.T) {
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := New[int]()
		const n = 200
		var wantW, wantR [n]bool
		for op := 0; op < 60; op++ {
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			step := 1 + rng.Intn(3)
			w := rng.Intn(2) == 0
			f.Add(1, lo, hi, step, w, bfj.Pos{})
			for i := lo; i < hi; i += step {
				if w {
					wantW[i] = true
				} else {
					wantR[i] = true
				}
			}
		}
		var gotW, gotR [n]bool
		f.Drain(func(id int, e Entry) {
			for i := int(e.Lo); i < int(e.Hi) && i < n; i += e.Step {
				if e.Write {
					gotW[i] = true
				} else {
					gotR[i] = true
				}
			}
		})
		// Merging may only widen within the same kind... it must cover at
		// least what was added, and writes must not appear where never
		// written (soundness: extra covered reads/writes would cause false
		// alarms, so coverage must be exact).
		return gotW == wantW && gotR == wantR
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestOffStrideRangeNotExtended pins the [0,6):2 counterexample behind
// the stride-extension guard: [0,6):2 covers {0,2,4}, so its Hi-1 = 5
// is off-stride and Hi-1+Step = 7 is NOT the next stride element (6
// is).  Absorbing the singleton {7} into [0,8):2 would claim the
// untouched index 6 and drop the touched index 7 — a false alarm and a
// missed race in one edit.  The singleton must stay a separate entry.
func TestOffStrideRangeNotExtended(t *testing.T) {
	f := New[int]()
	f.Add(1, 0, 6, 2, true, bfj.Pos{})
	f.Add(1, 7, 8, 1, true, bfj.Pos{})
	got := collect(f)
	if len(got[1]) != 2 {
		t.Fatalf("off-stride range absorbed the singleton: %v", got[1])
	}
	if e := got[1][0]; e.Lo != 0 || e.Hi != 6 || e.Step != 2 {
		t.Errorf("range entry mutated: %+v", e)
	}
	if e := got[1][1]; e.Lo != 7 || e.Hi != 8 {
		t.Errorf("singleton entry mutated: %+v", e)
	}
}

// TestOnStrideRangeExtends is the companion positive case: [0,5):2
// covers {0,2,4} with Hi-1 = 4 on-stride, so the singleton {6} is the
// genuine next element and extends the range to {0,2,4,6}.
func TestOnStrideRangeExtends(t *testing.T) {
	f := New[int]()
	f.Add(1, 0, 5, 2, true, bfj.Pos{})
	f.Add(1, 6, 7, 1, true, bfj.Pos{})
	got := collect(f)
	if len(got[1]) != 1 {
		t.Fatalf("on-stride singleton did not merge: %v", got[1])
	}
	if e := got[1][0]; e.Lo != 0 || e.Hi != 7 || e.Step != 2 {
		t.Errorf("merged entry: %+v", e)
	}
}

// naiveFootprint is the obviously-correct model: it records every
// (array, element, write) triple of every Add with no merging at all.
type naiveFootprint map[int]map[[2]int]bool // array id -> {element, write?1:0}

func (n naiveFootprint) add(arrayID, lo, hi, step int, write bool) {
	es := n[arrayID]
	if es == nil {
		es = map[[2]int]bool{}
		n[arrayID] = es
	}
	w := 0
	if write {
		w = 1
	}
	for i := lo; i < hi; i += step {
		es[[2]int{i, w}] = true
	}
}

// TestInterleavedArraysMatchNaiveModel is the differential property
// test for footprint merging: random Add sequences with mixed strides,
// reads and writes, interleaved across several arrays — so the lastEs
// cache alternates between hits (sequential runs on one array) and
// misses (switching arrays mid-run) — must drain to entries covering
// exactly the (element, write) set the naive model recorded.  Sequences
// are singleton-heavy to exercise the run-extension and
// stride-detection merges, which only fire on singleton adds.
func TestInterleavedArraysMatchNaiveModel(t *testing.T) {
	const elems = 128
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := New[int]()
		want := naiveFootprint{}
		arrays := []int{3, 7, 11}
		cur := arrays[rng.Intn(len(arrays))]
		for op := 0; op < 300; op++ {
			// Mostly stay on one array (cache hits), sometimes switch
			// (cache misses), as real loops over arrays do.
			if rng.Intn(8) == 0 {
				cur = arrays[rng.Intn(len(arrays))]
			}
			lo := rng.Intn(elems)
			hi, step := lo+1, 1
			switch rng.Intn(4) {
			case 0: // contiguous range
				hi = lo + 1 + rng.Intn(elems-lo)
			case 1: // strided range
				hi = lo + 1 + rng.Intn(elems-lo)
				step = 1 + rng.Intn(4)
			default: // singleton (the merge-heavy common case)
			}
			w := rng.Intn(2) == 0
			f.Add(cur, lo, hi, step, w, bfj.Pos{})
			want.add(cur, lo, hi, step, w)
		}
		got := naiveFootprint{}
		f.Drain(func(id int, e Entry) {
			if e.Step < 1 {
				t.Fatalf("seed %d: drained entry with step %d", seed, e.Step)
			}
			got.add(id, int(e.Lo), int(e.Hi), e.Step, e.Write)
		})
		if f.Pending() {
			t.Fatalf("seed %d: footprint still pending after drain", seed)
		}
		for _, id := range arrays {
			for el := range want[id] {
				if !got[id][el] {
					t.Errorf("seed %d: array %d element %v added but not covered by drained entries", seed, id, el)
				}
			}
			for el := range got[id] {
				if !want[id][el] {
					t.Errorf("seed %d: array %d element %v covered by drained entries but never added", seed, id, el)
				}
			}
		}
	}
}

// TestEntryIsCompact pins the Entry layout at 32 bytes: int32 bounds,
// an int stride, the kind and a packed position.
func TestEntryIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 32 {
		t.Errorf("Entry takes %d bytes, want 32", n)
	}
}
