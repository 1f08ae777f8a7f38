package difftest

import (
	"fmt"
	"strings"
	"testing"

	"bigfoot/internal/bfj"
	"bigfoot/internal/detector"
	"bigfoot/internal/instrument"
	"bigfoot/internal/interp"
	"bigfoot/internal/vc"
)

// churnSource builds a program whose shared field o.g round-trips the
// adaptive read metadata `rounds` times: each round forks two
// concurrent read-only peeks (promotion to a read vector), joins both,
// and re-reads from the parent (demotion back to an epoch).  With
// racyWriter an unsynchronized writer thread runs alongside, so the
// detectors must keep finding the race through arbitrary
// promote/demote interleavings.
func churnSource(rounds int, racyWriter bool) string {
	var b strings.Builder
	b.WriteString("class Obj { field g; method peek(k) { u = this.g; u = u + k; } }\n")
	b.WriteString("setup { o = new Obj; }\n")
	b.WriteString("thread {\n  o.g = 1;\n")
	for i := 0; i < rounds; i++ {
		fmt.Fprintf(&b, "  h%da = fork o.peek(1);\n  h%db = fork o.peek(2);\n  join h%da;\n  join h%db;\n  x%d = o.g;\n",
			i, i, i, i, i)
	}
	b.WriteString("}\n")
	if racyWriter {
		b.WriteString("thread { o.g = 9; }\n")
	}
	return b.String()
}

// wideChurnSource is churnSource's boundary sibling: one round with
// `readers` concurrent read-only forks, so the promoted read vector
// spans thread ids up to readers+1 before the post-join read collapses
// it.  With one static thread block, readers = 254 occupies exactly
// vc.MaxThreads thread ids (setup 0, worker 1, forks 2..255).
func wideChurnSource(readers int) string {
	var b strings.Builder
	b.WriteString("class Obj { field g; method peek(k) { u = this.g; u = u + k; } }\n")
	b.WriteString("setup { o = new Obj; }\n")
	b.WriteString("thread {\n  o.g = 1;\n")
	for i := 0; i < readers; i++ {
		fmt.Fprintf(&b, "  h%d = fork o.peek(%d);\n", i, i%7)
	}
	for i := 0; i < readers; i++ {
		fmt.Fprintf(&b, "  join h%d;\n", i)
	}
	b.WriteString("  x = o.g;\n}\n")
	return b.String()
}

// ftStats runs src under the FastTrack variant with the walking census
// cross-check on and returns the detector (its Stats carry the
// adaptive-transition counters).
func ftStats(t *testing.T, src string, seed int64, disable bool) *detector.Detector {
	t.Helper()
	base, err := bfj.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, _ := instrument.EveryAccess(base)
	d := detector.New(detector.Config{DebugCensus: true, DisableFastPaths: disable})
	if _, err := interp.Run(prog, d, interp.Options{Seed: seed}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return d
}

// TestAdaptiveRoundTripProperty: promotion → demotion → promotion
// round-trips preserve detection against the oracle and exact census
// accounting (DebugCensus is on in every CheckSource run), with fast
// paths both enabled and disabled — and the transitions demonstrably
// happen, so the property is not vacuous.
func TestAdaptiveRoundTripProperty(t *testing.T) {
	const rounds = 5
	for _, racy := range []bool{false, true} {
		src := churnSource(rounds, racy)
		for seed := int64(0); seed < 4; seed++ {
			opts := Options{Seeds: []int64{seed}, CompareFastPaths: true}
			if dis, err := CheckSource(src, opts); err != nil {
				t.Fatalf("racy=%v seed %d: %v", racy, seed, err)
			} else if dis != nil {
				t.Fatalf("racy=%v seed %d: %s\n%s", racy, seed, dis, src)
			}
		}
		d := ftStats(t, src, 0, false)
		f := d.Stats.Fast
		if racy {
			if f.ReadPromotions == 0 {
				t.Errorf("racy churn never promoted: %+v", f)
			}
			if d.RaceCount() == 0 {
				t.Errorf("racy churn lost its race through metadata transitions")
			}
		} else {
			// Deterministic: one promotion and one demotion per round (the
			// two forked reads are always mutually concurrent; the parent
			// read always dominates both).
			if f.ReadPromotions != rounds || f.ReadDemotions != rounds {
				t.Errorf("round-trip counts: promotions=%d demotions=%d, want %d each",
					f.ReadPromotions, f.ReadDemotions, rounds)
			}
		}
		d2 := ftStats(t, src, 0, true)
		if d2.Stats.Fast.ReadDemotions != 0 {
			t.Errorf("DisableFastPaths still demoted: %+v", d2.Stats.Fast)
		}
		if d2.RaceCount() != d.RaceCount() {
			t.Errorf("race count diverges across the knob: %d vs %d", d.RaceCount(), d2.RaceCount())
		}
	}
}

// TestAdaptiveMaxThreadsBoundary drives the promoted read vector to the
// epoch encoding's limit: 254 concurrent readers occupy thread ids up
// to 255 (exactly vc.MaxThreads ids in the run), the vector spans all
// of them, and the post-join demotion collapses it in one step — with
// the census cross-check proving the word delta exact.  One fork more
// must be refused by the interpreter, pinning that the boundary case
// here really is the last representable one.
func TestAdaptiveMaxThreadsBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("256-thread boundary run is slow")
	}
	const readers = vc.MaxThreads - 2 // setup thread + one worker block
	src := wideChurnSource(readers)
	d := ftStats(t, src, 1, false)
	f := d.Stats.Fast
	if f.ReadPromotions != 1 || f.ReadDemotions != 1 {
		t.Errorf("boundary churn: promotions=%d demotions=%d, want 1 each", f.ReadPromotions, f.ReadDemotions)
	}
	if d.RaceCount() != 0 {
		t.Errorf("read-only churn raced: %v", d.SortedRaceDescs())
	}
	// The full differential check (all five detectors, oracle, census,
	// fast paths both ways) on one seed — wide vectors are where
	// demotion's word accounting is most at risk.
	if dis, err := CheckSource(src, Options{Seeds: []int64{1}, CompareFastPaths: true}); err != nil {
		t.Fatal(err)
	} else if dis != nil {
		t.Fatalf("boundary disagreement: %s", dis)
	}

	over := wideChurnSource(readers + 1)
	base, err := bfj.Parse(over)
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := instrument.EveryAccess(base)
	if _, err := interp.Run(prog, detector.New(detector.Config{}), interp.Options{Seed: 1}); err == nil {
		t.Error("one fork past vc.MaxThreads must be a runtime error")
	}
}
