package engine

import (
	"context"
	"reflect"
	"testing"

	"bigfoot/internal/metrics"
)

// seriesValue finds one series value in a snapshot (0 when absent).
func seriesValue(snap []metrics.FamilySnapshot, name string, labels ...string) float64 {
	for _, f := range snap {
		if f.Name != name {
			continue
		}
	series:
		for _, s := range f.Series {
			if len(s.Labels) != len(labels)/2 {
				continue
			}
			for i, l := range s.Labels {
				if l.Name != labels[2*i] || l.Value != labels[2*i+1] {
					continue series
				}
			}
			return s.Value
		}
	}
	return 0
}

// seriesCount finds one histogram series' observation count.
func seriesCount(snap []metrics.FamilySnapshot, name string, labels ...string) uint64 {
	for _, f := range snap {
		if f.Name != name {
			continue
		}
	series:
		for _, s := range f.Series {
			for i, l := range s.Labels {
				if l.Name != labels[2*i] || l.Value != labels[2*i+1] {
					continue series
				}
			}
			return s.Count
		}
	}
	return 0
}

// TestEngineObservesRuns: build + run against a live registry populates
// the latency histograms, outcome counters, folded execution counters,
// and cache event family with the values the outcome reports.
func TestEngineObservesRuns(t *testing.T) {
	reg := metrics.NewRegistry()
	e := New(Options{CacheSize: 4, Metrics: reg})
	art, _, err := e.BuildSource(racy, BuildSpec{Variants: []string{"BF"}, WithBase: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(context.Background(), art.Variant("BF"), RunSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunBase(context.Background(), art.Base, RunSpec{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.BuildSource(racy, BuildSpec{Variants: []string{"BF"}, WithBase: true}); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := seriesValue(snap, "bigfoot_engine_runs_total", "variant", "BF", "outcome", "race"); got != 1 {
		t.Errorf("runs_total{BF,race} = %v, want 1", got)
	}
	if got := seriesValue(snap, "bigfoot_engine_runs_total", "variant", "base", "outcome", "ok"); got != 1 {
		t.Errorf("runs_total{base,ok} = %v, want 1", got)
	}
	if got := seriesCount(snap, "bigfoot_engine_run_seconds", "variant", "BF"); got != 1 {
		t.Errorf("run_seconds{BF} count = %d, want 1", got)
	}
	if got := seriesCount(snap, "bigfoot_engine_build_seconds", "variant", "BF"); got != 1 {
		t.Errorf("build_seconds{BF} count = %d, want 1 (cache hit must not re-observe)", got)
	}
	if got := seriesValue(snap, "bigfoot_engine_steps_total", "variant", "BF"); got != float64(out.Counters.Steps) {
		t.Errorf("steps_total{BF} = %v, want %d", got, out.Counters.Steps)
	}
	if got := seriesValue(snap, "bigfoot_engine_races_total", "variant", "BF"); got != float64(len(out.Races)) {
		t.Errorf("races_total{BF} = %v, want %d", got, len(out.Races))
	}
	if got := seriesValue(snap, "bigfoot_engine_cache_events_total", "event", "hit"); got != 1 {
		t.Errorf("cache hit events = %v, want 1", got)
	}
	if got := seriesValue(snap, "bigfoot_engine_cache_events_total", "event", "miss"); got != 1 {
		t.Errorf("cache miss events = %v, want 1", got)
	}
	if got := seriesValue(snap, "bigfoot_engine_cache_entries"); got != 1 {
		t.Errorf("cache entries gauge = %v, want 1", got)
	}
	fp := out.FastPaths
	wantFast := float64(fp.Total() + fp.ReadPromotions + fp.ReadDemotions)
	var gotFast float64
	for _, f := range snap {
		if f.Name != "bigfoot_engine_fastpath_hits_total" {
			continue
		}
		for _, s := range f.Series {
			gotFast += s.Value
		}
	}
	if gotFast != wantFast {
		t.Errorf("fastpath_hits_total sum = %v, want %v (outcome %+v)", gotFast, wantFast, fp)
	}
	if got := seriesValue(snap, "bigfoot_engine_fastpath_hits_total",
		"variant", "BF", "path", "same_epoch_read"); got != float64(fp.SameEpochReads) {
		t.Errorf("fastpath_hits_total{BF,same_epoch_read} = %v, want %d", got, fp.SameEpochReads)
	}
}

// TestRunSpecDisableFastPaths: the knob reaches the detector (no hits
// are counted) without changing the run's findings.
func TestRunSpecDisableFastPaths(t *testing.T) {
	e := New(Options{})
	art, _, err := e.BuildSource(racy, BuildSpec{Variants: []string{"FT"}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := e.Run(context.Background(), art.Variant("FT"), RunSpec{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.Run(context.Background(), art.Variant("FT"), RunSpec{Seed: 3, DisableFastPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	if fast.FastPaths.Total() == 0 {
		t.Errorf("default run hit no fast paths: %+v", fast.FastPaths)
	}
	if n := slow.FastPaths.Total(); n != 0 {
		t.Errorf("disabled run still counted %d fast-path hits: %+v", n, slow.FastPaths)
	}
	if len(fast.Races) != len(slow.Races) || fast.ShadowOps != slow.ShadowOps {
		t.Errorf("knob changed observables: %d/%d races, %d/%d shadow ops",
			len(fast.Races), len(slow.Races), fast.ShadowOps, slow.ShadowOps)
	}
}

// TestEngineMetricsNeutral: attaching a registry must not change a
// run's deterministic results — instruments are fed after the run, off
// the hot path.
func TestEngineMetricsNeutral(t *testing.T) {
	run := func(reg *metrics.Registry) *Outcome {
		e := New(Options{Metrics: reg})
		art, _, err := e.BuildSource(racy, BuildSpec{Variants: []string{"BF"}})
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(context.Background(), art.Variant("BF"), RunSpec{Seed: 7, CountChecks: true})
		if err != nil {
			t.Fatal(err)
		}
		out.Duration = 0
		return out
	}
	bare, metered := run(nil), run(metrics.NewRegistry())
	if !reflect.DeepEqual(bare, metered) {
		t.Errorf("metered outcome %+v differs from bare %+v", metered, bare)
	}
}

// TestOutcomeClass covers the outcome taxonomy used by runs_total.
func TestOutcomeClass(t *testing.T) {
	if got := outcomeClass(nil, 0); got != "ok" {
		t.Errorf("clean = %q", got)
	}
	if got := outcomeClass(nil, 2); got != "race" {
		t.Errorf("racy = %q", got)
	}
	if got := outcomeClass(context.DeadlineExceeded, 0); got != "budget" {
		t.Errorf("deadline = %q", got)
	}
	if got := outcomeClass(&BuildError{}, 1); got != "fault" {
		t.Errorf("fault = %q", got)
	}
}
