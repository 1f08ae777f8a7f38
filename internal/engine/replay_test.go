package engine

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// recordVariant runs one variant with Record wired and returns the
// encoded trace alongside the live outcome.
func recordVariant(t *testing.T, e *Engine, v *Variant, seed int64) (*bytes.Buffer, *Outcome) {
	t.Helper()
	var buf bytes.Buffer
	out, err := e.Run(context.Background(), v, RunSpec{
		Seed:        seed,
		Record:      &buf,
		RecordMeta:  RecordMeta{Program: "racy", Suite: "test"},
		CountChecks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &buf, out
}

// TestReplayReproducesLiveOutcome: for every variant and several seeds,
// replaying a recorded trace reproduces the live run's whole outcome —
// counters, detector costs, fast-path counts, races, array modes, and
// the check split.  Only the wall-clock Duration differs.
func TestReplayReproducesLiveOutcome(t *testing.T) {
	e, art := buildAll(t, racy)
	for _, v := range art.Variants {
		for _, seed := range []int64{0, 7} {
			buf, live := recordVariant(t, e, v, seed)
			rep, err := Replay(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s seed %d: %v", v.Name, seed, err)
			}
			if rep.RunErr != nil {
				t.Fatalf("%s seed %d: replay reports run error %v", v.Name, seed, rep.RunErr)
			}
			if hdr := rep.Header; hdr.Variant != v.Name || hdr.Seed != seed || hdr.Program != "racy" {
				t.Errorf("%s seed %d: header = %+v", v.Name, seed, hdr)
			}
			got, want := rep.Outcome, live
			got.Duration, want.Duration = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: replayed outcome %+v, want live %+v", v.Name, seed, got, want)
			}
		}
	}
}

// TestReplayBaseTrace: base traces carry variant "base", replay without
// a detector, and reproduce the base counters from the footer.
func TestReplayBaseTrace(t *testing.T) {
	e, art := buildAll(t, racy)
	var buf bytes.Buffer
	live, err := e.RunBase(context.Background(), art.Base, RunSpec{Seed: 2, Record: &buf})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Header.Variant != BaseVariant {
		t.Errorf("variant = %q, want %q", rep.Header.Variant, BaseVariant)
	}
	rep.Outcome.Duration, live.Duration = 0, 0
	if !reflect.DeepEqual(rep.Outcome, live) {
		t.Errorf("replayed base outcome %+v, want live %+v", rep.Outcome, live)
	}
	if rep.Outcome.ShadowOps != 0 || len(rep.Outcome.Races) != 0 {
		t.Errorf("base replay grew detector state: %+v", rep.Outcome)
	}
}

// TestRecordFailedRun: budget-exhausted runs record a footer error; the
// replay reports it via RunErr while still reproducing the partial
// counters.
func TestRecordFailedRun(t *testing.T) {
	e, art := buildAll(t, spinner)
	v := art.Variant("BF")
	var buf bytes.Buffer
	live, err := e.Run(context.Background(), v, RunSpec{Seed: 0, MaxSteps: 5000, Record: &buf})
	if err == nil {
		t.Fatal("spinner under 5000 steps succeeded; want step-limit error")
	}
	rep, rerr := Replay(bytes.NewReader(buf.Bytes()))
	if rerr != nil {
		t.Fatal(rerr)
	}
	if rep.RunErr == nil {
		t.Error("replay of failed run reports no RunErr")
	}
	if rep.Outcome.Counters != live.Counters {
		t.Errorf("counters %+v, want %+v", rep.Outcome.Counters, live.Counters)
	}
	if rep.Outcome.ShadowOps != live.ShadowOps {
		t.Errorf("shadow ops %d, want %d", rep.Outcome.ShadowOps, live.ShadowOps)
	}
}
