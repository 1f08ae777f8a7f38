package detector

import (
	"testing"

	"bigfoot/internal/bfj"
	"bigfoot/internal/interp"
	"bigfoot/internal/vc"
)

// fieldCheck builds a single-field check site for direct hook driving.
func fieldCheck(index int, field string) *interp.FieldCheck {
	return &interp.FieldCheck{Index: index, Fields: []string{field}, Poss: []bfj.Pos{{Line: 1, Col: 1}}}
}

// setClock overwrites thread t's vector clock (test-only: the hook
// driver below bypasses the interpreter, so fork/join bookkeeping is
// set up by hand).
func setClock(d *Detector, t int, comps map[int]uint64) {
	d.clk.now(t) // grow
	nv := vc.New(t + 1)
	for u, c := range comps {
		nv.Set(u, c)
	}
	d.clk.vcs[t] = nv
}

// driveDemotionCycle runs one promote → extend → demote cycle on obj's
// field f: thread 1 and thread 2 are concurrent (promotion), thread 3
// dominates both (demotion).  Clock setup is done by the caller via
// demotionClocks.
func driveDemotionCycle(d *Detector, obj *interp.Object, fc *interp.FieldCheck) {
	d.CheckField(1, false, obj, fc)
	d.CheckField(2, false, obj, fc)
	d.CheckField(3, false, obj, fc)
}

func demotionClocks(d *Detector) {
	setClock(d, 1, map[int]uint64{1: 5})
	setClock(d, 2, map[int]uint64{2: 5})
	setClock(d, 3, map[int]uint64{1: 6, 2: 6, 3: 1})
}

// runRangeShortcuts runs a fine-grained CheckRange sequence over a's four
// elements that takes the same-epoch and ownership shortcuts for reads
// and writes alike.
func runRangeShortcuts(d *Detector, a *interp.Array) {
	d.CheckRange(1, false, a, 0, 4, 1, nil) // first touch: protocol
	d.CheckRange(1, false, a, 0, 4, 1, nil) // 4 same-epoch reads
	d.CheckRange(1, true, a, 0, 4, 1, nil)  // 4 owned writes
	d.CheckRange(1, true, a, 0, 4, 1, nil)  // 4 same-epoch writes
	d.clk.vcs[1].Tick(1)
	d.CheckRange(1, false, a, 0, 4, 2, nil) // 2 owned reads
}

// TestEachFastPathFires proves no fast path is dead code: a hand-driven
// event sequence makes every FastPathStats counter move, and the same
// sequence under DisableFastPaths leaves every fast-path hit counter at
// zero (the adaptive-transition counters are telemetry, not hits, and
// promotions still occur without fast paths).  Fine-grained CheckRange
// takes the same shortcuts per element.
func TestEachFastPathFires(t *testing.T) {
	r := New(Config{})
	runRangeShortcuts(r, &interp.Array{ID: 1, Elems: make([]interp.Value, 4)})
	if want := (FastPathStats{SameEpochReads: 4, SameEpochWrites: 4, OwnedReads: 2, OwnedWrites: 4}); r.Stats.Fast != want {
		t.Errorf("fine CheckRange shortcuts: %+v, want %+v", r.Stats.Fast, want)
	}
	r2 := New(Config{DisableFastPaths: true})
	runRangeShortcuts(r2, &interp.Array{ID: 1, Elems: make([]interp.Value, 4)})
	if r2.Stats.Fast.Total() != 0 || r2.Stats.ShadowOps != r.Stats.ShadowOps || r.RaceCount()+r2.RaceCount() != 0 {
		t.Errorf("fine CheckRange without fast paths: %+v, %d shadow ops (fast: %d), races %v %v",
			r2.Stats.Fast, r2.Stats.ShadowOps, r.Stats.ShadowOps, r.SortedRaceDescs(), r2.SortedRaceDescs())
	}

	d := New(Config{})
	obj := benchObject()
	fc := fieldCheck(0, "f")
	lock := &interp.Object{ID: 9, Class: &bfj.Class{Name: "P"}}

	d.CheckField(1, false, obj, fc) // first touch: slow path
	d.CheckField(1, false, obj, fc) // same-epoch read
	d.CheckField(1, true, obj, fc)  // owned write (W empty, R is t's)
	d.CheckField(1, true, obj, fc)  // same-epoch write
	d.clk.vcs[1].Tick(1)
	d.CheckField(1, false, obj, fc) // owned read (same-epoch misses after tick)

	d.Acquire(1, lock)
	d.Release(1, lock)
	d.Acquire(1, lock) // lock-ownership cache hit

	obj2 := &interp.Object{ID: 2, Class: &bfj.Class{Name: "P"}}
	fc2 := fieldCheck(1, "g")
	demotionClocks(d)
	driveDemotionCycle(d, obj2, fc2) // promotion then demotion

	f := d.Stats.Fast
	for name, got := range map[string]uint64{
		"SameEpochReads":  f.SameEpochReads,
		"SameEpochWrites": f.SameEpochWrites,
		"OwnedReads":      f.OwnedReads,
		"OwnedWrites":     f.OwnedWrites,
		"ReadPromotions":  f.ReadPromotions,
		"ReadDemotions":   f.ReadDemotions,
		"LockOwnerHits":   f.LockOwnerHits,
	} {
		if got == 0 {
			t.Errorf("%s never fired: %+v", name, f)
		}
	}
	if d.RaceCount() != 0 {
		t.Fatalf("fast-path driver raced: %v", d.SortedRaceDescs())
	}

	// The same sequence with fast paths disabled (fresh objects: shadow
	// state rides on the object, so reuse would leak the first run's
	// epochs): no hits, no demotion (promotion still happens — inflation
	// is base protocol).
	d2 := New(Config{DisableFastPaths: true})
	obj, obj2 = benchObject(), &interp.Object{ID: 2, Class: &bfj.Class{Name: "P"}}
	lock = &interp.Object{ID: 9, Class: &bfj.Class{Name: "P"}}
	d2.CheckField(1, false, obj, fc)
	d2.CheckField(1, false, obj, fc)
	d2.CheckField(1, true, obj, fc)
	d2.CheckField(1, true, obj, fc)
	d2.clk.vcs[1].Tick(1)
	d2.CheckField(1, false, obj, fc)
	d2.Acquire(1, lock)
	d2.Release(1, lock)
	d2.Acquire(1, lock)
	demotionClocks(d2)
	driveDemotionCycle(d2, obj2, fc2)
	g := d2.Stats.Fast
	if g.Total() != 0 {
		t.Errorf("DisableFastPaths recorded fast-path hits: %+v", g)
	}
	if g.ReadDemotions != 0 {
		t.Errorf("DisableFastPaths demoted read metadata: %+v", g)
	}
	if g.ReadPromotions == 0 {
		t.Errorf("promotion should occur regardless of fast paths: %+v", g)
	}
	if d2.Stats.ShadowOps != d.Stats.ShadowOps {
		t.Errorf("shadow ops diverge across the knob: %d vs %d", d.Stats.ShadowOps, d2.Stats.ShadowOps)
	}
}

// TestFastPathZeroAllocs pins the hot-path allocation contract in plain
// `go test` (CI runs it on every push, no benchmark needed): every fast
// path — same-epoch, ownership, demotion churn, lock re-acquire — stays
// at 0 allocs/op in steady state, on CheckField, on fine CheckRange and
// on a footprint commit.
func TestFastPathZeroAllocs(t *testing.T) {
	fc := fieldCheck(0, "f")

	// Each case gets a fresh object: shadow state rides on the object,
	// so sharing one across cases would leak epochs from one detector's
	// clock domain into another's and fabricate races.
	cases := []struct {
		name string
		prep func(t *testing.T) func()
	}{
		{"same-epoch-read", func(*testing.T) func() {
			d, obj := New(Config{}), benchObject()
			d.CheckField(1, false, obj, fc)
			return func() { d.CheckField(1, false, obj, fc) }
		}},
		{"same-epoch-write", func(*testing.T) func() {
			d, obj := New(Config{}), benchObject()
			d.CheckField(1, true, obj, fc)
			return func() { d.CheckField(1, true, obj, fc) }
		}},
		{"owned-write", func(*testing.T) func() {
			d, obj := New(Config{}), benchObject()
			d.CheckField(1, true, obj, fc)
			return func() {
				d.clk.vcs[1].Tick(1)
				d.CheckField(1, true, obj, fc)
			}
		}},
		{"demotion-churn", func(t *testing.T) func() {
			d, obj := New(Config{}), benchObject()
			demotionClocks(d)
			driveDemotionCycle(d, obj, fc) // warm-up allocates the read vector once
			driveDemotionCycle(d, obj, fc) // second cycle grows it to its steady size
			// Every promotion takes the slot the last demotion freed: the
			// detector's vector table never grows past one slot.
			t.Cleanup(func() {
				if n := d.vs.Slots(); n != 1 {
					t.Errorf("demotion churn left %d slots in the vector table, want 1", n)
				}
			})
			return func() { driveDemotionCycle(d, obj, fc) }
		}},
		{"fine-range", func(*testing.T) func() {
			// FT's eager array path: each op ticks the clock, so the first
			// check installs owned writes and the second hits same-epoch.
			d := New(Config{})
			a := &interp.Array{ID: 1, Elems: make([]interp.Value, 64)}
			d.CheckRange(1, true, a, 0, 64, 1, nil)
			return func() {
				d.clk.vcs[1].Tick(1)
				d.CheckRange(1, true, a, 0, 64, 1, nil)
				d.CheckRange(1, true, a, 0, 64, 1, nil)
			}
		}},
		{"footprint-commit", func(*testing.T) func() {
			// BenchmarkCommit's shape: two pending runs committed at a
			// sync, once their entry slices are sized.
			d := New(Config{Footprints: true})
			a1 := &interp.Array{ID: 1, Elems: make([]interp.Value, 64)}
			a2 := &interp.Array{ID: 2, Elems: make([]interp.Value, 64)}
			op := func() {
				d.CheckRange(1, true, a1, 0, 64, 1, nil)
				d.CheckRange(1, false, a2, 0, 64, 1, nil)
				d.sync(1)
			}
			op()
			return op
		}},
		{"lock-reacquire", func(*testing.T) func() {
			d := New(Config{})
			lock := &interp.Object{ID: 9, Class: &bfj.Class{Name: "P"}}
			d.Acquire(1, lock)
			d.Release(1, lock)
			return func() {
				d.Acquire(1, lock)
				d.Release(1, lock)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.prep(t)
			if avg := testing.AllocsPerRun(200, op); avg != 0 {
				t.Errorf("%s: %v allocs/op, want 0", tc.name, avg)
			}
		})
	}
}

// TestDemotionCensusBalances runs the promote↔demote churn with the
// walking census cross-check enabled: every inflation and collapse must
// report its exact word delta through the meter.
func TestDemotionCensusBalances(t *testing.T) {
	d := New(Config{DebugCensus: true})
	obj := benchObject()
	fc := fieldCheck(0, "f")
	demotionClocks(d)
	for i := 0; i < 10; i++ {
		driveDemotionCycle(d, obj, fc)
		d.verifyCensus() // panics on any mismatch
	}
	if d.Stats.Fast.ReadDemotions == 0 || d.Stats.Fast.ReadPromotions == 0 {
		t.Fatalf("churn did not exercise both transitions: %+v", d.Stats.Fast)
	}
}
