package detector

import (
	"testing"

	"bigfoot/internal/bfj"
	"bigfoot/internal/instrument"
	"bigfoot/internal/interp"
	"bigfoot/internal/trace"
)

// This file pins the sampled→exact census fix: the pre-fix detector
// walked all shadow state only at the first sync op, every 256th sync
// op after that, and at Finish, so a shadow-space peak between two
// samples was invisible to PeakWords.  oldCensusSampler replays that
// exact policy against the live detector's debug walk; the regression
// test below builds a program whose peak falls strictly between the
// first sample and the Finish walk and asserts the exact incremental
// PeakWords sees what the sampler misses.

// oldCensusSampler replays the pre-fix sampling schedule: a countdown
// starting at zero, decremented on every synchronization operation,
// walking the shadow heap when it hits zero (so: first sync op, then
// every 256th), plus one unconditional walk at Finish.
type oldCensusSampler struct {
	interp.NopHook
	d         *Detector
	countdown int
	peak      uint64
	samples   int
}

func (s *oldCensusSampler) sample() {
	s.countdown--
	if s.countdown <= 0 {
		s.countdown = 256
		s.walk()
	}
}

func (s *oldCensusSampler) walk() {
	s.samples++
	words, _ := s.d.walkCensus()
	if words > s.peak {
		s.peak = words
	}
}

// The sampler must run after the detector's handling of the same event
// (trace.Tee order), mirroring the old census call at the end of sync.
func (s *oldCensusSampler) Fork(parent, child int)                     { s.sample() }
func (s *oldCensusSampler) ThreadEnd(t int)                            { s.sample() }
func (s *oldCensusSampler) Join(parent, child int)                     { s.sample() }
func (s *oldCensusSampler) Acquire(t int, lock *interp.Object)         { s.sample() }
func (s *oldCensusSampler) Release(t int, lock *interp.Object)         { s.sample() }
func (s *oldCensusSampler) VolRead(t int, o *interp.Object, f string)  { s.sample() }
func (s *oldCensusSampler) VolWrite(t int, o *interp.Object, f string) { s.sample() }
func (s *oldCensusSampler) Finish()                                    { s.walk() }

// TestPeakWordsExceedsSampledCensus: four forked readers inflate one
// field's read vector (mutually unordered reads), then a writer forked
// after all joins deflates it back to an epoch.  The inflated peak
// lies strictly between the old sampler's first walk (at the first
// fork, before any check ran) and its Finish walk (after deflation),
// so the sampled peak under-reports and the exact incremental peak
// must exceed it.
func TestPeakWordsExceedsSampledCensus(t *testing.T) {
	src := `
class Cell {
  field v;
  method rd() { t = this.v; return t; }
  method wr() { w = 7; this.v = w; return w; }
}
setup {
  c = new Cell;
  t1 = fork c.rd();
  t2 = fork c.rd();
  t3 = fork c.rd();
  t4 = fork c.rd();
  join t1;
  join t2;
  join t3;
  join t4;
  tw = fork c.wr();
  join tw;
}
`
	prog, _ := instrument.EveryAccess(bfj.MustParse(src))
	d := New(Config{DebugCensus: true})
	s := &oldCensusSampler{d: d}
	if _, err := interp.Run(prog, trace.Tee(d, s), interp.Options{Seed: 0}); err != nil {
		t.Fatal(err)
	}
	if d.RaceCount() != 0 {
		t.Fatalf("program is join-ordered, got races %v", d.SortedRaceDescs())
	}
	// The program has far fewer than 256 sync ops, so the old policy
	// walked exactly twice: first sync op + Finish.
	if s.samples != 2 {
		t.Fatalf("sampler walked %d times, want 2 (first sync + Finish)", s.samples)
	}
	// Exactness invariants: the incremental running total matches a
	// final walk, and the peak dominates both it and the sampled peak.
	words, _ := d.walkCensus()
	if d.Stats.ShadowWords != words {
		t.Errorf("incremental census %d != walked census %d", d.Stats.ShadowWords, words)
	}
	if d.Stats.PeakWords < d.Stats.ShadowWords {
		t.Errorf("peak %d below final census %d", d.Stats.PeakWords, d.Stats.ShadowWords)
	}
	// The regression: the read-vector inflation between the two samples
	// is invisible to the old policy.
	if d.Stats.PeakWords <= s.peak {
		t.Errorf("exact PeakWords = %d does not exceed sampled peak %d; inflation between samples went unseen",
			d.Stats.PeakWords, s.peak)
	}
	t.Logf("exact peak %d, sampled peak %d, final %d", d.Stats.PeakWords, s.peak, d.Stats.ShadowWords)
}

// TestHeldBytesHandChecked pins HeldBytes on a small event sequence:
// the setup thread 0 forks threads 1 and 2, which read o.f concurrently
// (a promotion) and write a four-element array; both end and are
// joined, and thread 0 then writes o.f, deflating the read vector.
//
// Both detectors hold:
//   - o's field states: one slot, 32 bytes;
//   - the vector table: one slot header (24 bytes), its vector's three
//     components (24) and the free list's one entry (8) — 56 bytes;
//   - vector clocks: 13 components, 104 bytes.  Thread 0's clock grew
//     to 3 by the two joins, thread 1's holds 2 and thread 2's 3 (each
//     forked child copies its parent's clock and sets its own
//     component), and the two end snapshots copy threads 1 and 2 (2 + 3).
//
// That makes 192 bytes.  FT adds the array's four fine states (128
// bytes): 320.  SS adds one footprint entry (32) and the coarse array
// shadow's inline state (32): 256.
func TestHeldBytesHandChecked(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"FT", Config{}, 320},
		{"SS", Config{Footprints: true}, 256},
	} {
		d := New(c.cfg)
		o := benchObject()
		a := &interp.Array{ID: 1, Elems: make([]interp.Value, 4)}
		fc := fieldCheck(0, "f")
		d.Fork(0, 1)
		d.Fork(0, 2)
		d.CheckField(1, false, o, fc)
		d.CheckField(2, false, o, fc)
		d.CheckRange(1, true, a, 0, 4, 1, nil)
		d.ThreadEnd(1)
		d.ThreadEnd(2)
		d.Join(0, 1)
		d.Join(0, 2)
		d.CheckField(0, true, o, fc)
		d.Finish()
		if d.RaceCount() != 0 || d.Stats.Fast.ReadPromotions != 1 {
			t.Fatalf("%s: races %v, %d promotions; want none and one", c.name, d.SortedRaceDescs(), d.Stats.Fast.ReadPromotions)
		}
		if got := d.HeldBytes(); got != c.want {
			t.Errorf("%s holds %d bytes, want %d", c.name, got, c.want)
		}
	}
}
