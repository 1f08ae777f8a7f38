package detector

import (
	"testing"

	"bigfoot/internal/analysis"
	"bigfoot/internal/bfj"
	"bigfoot/internal/interp"
	"bigfoot/internal/proxy"
)

// Microbenchmarks for the detector hot paths touched by the exact
// incremental census: CheckField (slot-indexed shadow states, cached
// per-site group resolution), CheckRange (footprint append and
// fine-grained element checks), footprint commit, and the sync path.
// Results are committed as trajectory/legacy/BENCH_PR5.json; regenerate
// with
//
//	go test -bench . -benchmem -run '^$' ./internal/detector/
//
// The no-race steady state is what each loop measures — races and
// shadow growth happen once during warm-up, then every iteration rides
// the fast path the PR de-allocated.

// benchProxies builds a proxy table in which fields f/g/h/k of class P
// always appear together, so the whole group compresses onto one
// representative — the workload shape where the old per-event GroupsOf
// call allocated on every check.
func benchProxies(tb testing.TB) *proxy.Table {
	tb.Helper()
	src := `
class P { field f, g, h, k; }
setup { p = new P; l = new P; }
thread { acquire l; p.f = 1; p.g = 2; p.h = 3; p.k = 4; release l; }
thread { acquire l; t = p.f + p.g + p.h + p.k; p.f = t; release l; }
`
	base := bfj.MustParse(src)
	big := analysis.New(base, analysis.Options{}).Instrument()
	prox := proxy.Analyze(big)
	if prox.FieldsCompressed == 0 {
		tb.Fatal("bench workload produced no field compression")
	}
	return prox
}

func benchObject() *interp.Object {
	return &interp.Object{ID: 1, Class: &bfj.Class{Name: "P"}}
}

// BenchmarkCheckField measures the per-event cost of a coalesced
// four-field check in the no-race steady state.
//
//   - proxied: all four fields share one proxy group (one shadow op per
//     event; the old code re-ran GroupsOf and allocated its result per
//     event).
//   - distinct: no proxy table, four shadow ops per event (the old code
//     did four string-map lookups per event).
func BenchmarkCheckField(b *testing.B) {
	fields := []string{"f", "g", "h", "k"}
	poss := []bfj.Pos{{Line: 3, Col: 12}}
	b.Run("proxied", func(b *testing.B) {
		d := New(Config{Footprints: true, Proxies: benchProxies(b)})
		o := benchObject()
		fc := &interp.FieldCheck{Index: 0, Fields: fields, Poss: poss}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.CheckField(1, false, o, fc)
		}
	})
	b.Run("distinct", func(b *testing.B) {
		d := New(Config{})
		o := benchObject()
		fc := &interp.FieldCheck{Index: 0, Fields: fields, Poss: poss}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.CheckField(1, false, o, fc)
		}
	})
}

// BenchmarkCheckRange measures one array-check event.
//
//   - footprint: the deferred path (SS/SC/BF) — a footprint append that
//     merges into the existing contiguous run.
//   - fine: the eager path (FT/RC) — 64 per-element shadow checks in the
//     same-epoch steady state.
func BenchmarkCheckRange(b *testing.B) {
	b.Run("footprint", func(b *testing.B) {
		d := New(Config{Footprints: true})
		a := &interp.Array{ID: 1, Elems: make([]interp.Value, 64)}
		d.CheckRange(1, true, a, 0, 64, 1, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.CheckRange(1, true, a, i%64, i%64+1, 1, nil)
		}
	})
	b.Run("fine", func(b *testing.B) {
		d := New(Config{})
		a := &interp.Array{ID: 1, Elems: make([]interp.Value, 64)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.CheckRange(1, true, a, 0, 64, 1, nil)
		}
	})
}

// BenchmarkCommit measures a synchronization-triggered footprint
// commit.
//
//   - runs: two arrays, one pending write run each, onto coarse shadow
//     state — the steady-state shape of a loop thread hitting a lock.
//   - blocks-singletons: sixteen scattered singleton writes onto a
//     64-element array refined to one segment per element — luindex's
//     per-thread table under SS and SC.  The singletons descend, so the
//     footprint keeps one entry each, and every entry finds its
//     segment in the blocks representation.
func BenchmarkCommit(b *testing.B) {
	b.Run("runs", func(b *testing.B) {
		d := New(Config{Footprints: true})
		a1 := &interp.Array{ID: 1, Elems: make([]interp.Value, 64)}
		a2 := &interp.Array{ID: 2, Elems: make([]interp.Value, 64)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.CheckRange(1, true, a1, 0, 64, 1, nil)
			d.CheckRange(1, false, a2, 0, 64, 1, nil)
			d.sync(1)
		}
	})
	b.Run("blocks-singletons", func(b *testing.B) {
		d := New(Config{Footprints: true})
		a := &interp.Array{ID: 1, Elems: make([]interp.Value, 64)}
		op := func(i int) {
			for k := 0; k < 16; k++ {
				e := 63 - 4*k - i%4
				d.CheckRange(1, true, a, e, e+1, 1, nil)
			}
			d.sync(1)
		}
		for i := 0; i < 4; i++ {
			op(i) // one segment per element from here on
		}
		if m := d.ArrayModes(); m["blocks"] != 1 {
			b.Fatalf("array modes %v, want one blocks shadow", m)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op(i)
		}
	})
}

// BenchmarkSync measures an acquire/release pair on one lock with no
// pending footprint — the pure clock-join cost of the sync path, which
// under the old census walked all shadow state every 256th call.
func BenchmarkSync(b *testing.B) {
	d := New(Config{})
	lock := benchObject()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Acquire(1, lock)
		d.Release(1, lock)
	}
}

// BenchmarkFastPath measures each SmartTrack-style fast path in its
// steady state (trajectory/legacy/BENCH_PR9.json); every sub-benchmark
// must report 0 allocs/op (also pinned functionally by
// TestFastPathZeroAllocs).
//
//   - same-epoch-read/write: one epoch comparison, no vector clock.
//   - owned-write: the clock ticks between writes, so same-epoch misses
//     and the exclusive-ownership install runs.
//   - demotion-churn: three reads per iteration drive a full
//     promote → extend → demote cycle of the adaptive read metadata
//     (concurrent readers inflate to a vector, a dominating reader
//     collapses it back to an epoch, recycling the vector's storage).
//   - lock-reacquire: an acquire/release cycle by the owning thread —
//     the acquire-side join is skipped by the lock-ownership cache and
//     the release-side snapshot reuses the lock clock's storage.
func BenchmarkFastPath(b *testing.B) {
	fc := &interp.FieldCheck{Index: 0, Fields: []string{"f"}}
	b.Run("same-epoch-read", func(b *testing.B) {
		d, o := New(Config{}), benchObject()
		d.CheckField(1, false, o, fc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.CheckField(1, false, o, fc)
		}
	})
	b.Run("same-epoch-write", func(b *testing.B) {
		d, o := New(Config{}), benchObject()
		d.CheckField(1, true, o, fc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.CheckField(1, true, o, fc)
		}
	})
	b.Run("owned-write", func(b *testing.B) {
		d, o := New(Config{}), benchObject()
		d.CheckField(1, true, o, fc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.clk.vcs[1].Tick(1)
			d.CheckField(1, true, o, fc)
		}
	})
	b.Run("demotion-churn", func(b *testing.B) {
		d, o := New(Config{}), benchObject()
		demotionClocks(d)
		driveDemotionCycle(d, o, fc) // warm-up allocates the read vector
		driveDemotionCycle(d, o, fc) // second cycle grows it to steady size
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			driveDemotionCycle(d, o, fc)
		}
	})
	b.Run("lock-reacquire", func(b *testing.B) {
		d, lock := New(Config{}), benchObject()
		d.Acquire(1, lock)
		d.Release(1, lock)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Acquire(1, lock)
			d.Release(1, lock)
		}
	})
}
