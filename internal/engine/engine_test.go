package engine

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bigfoot/internal/interp"
)

// racy has a deliberate unsynchronized counter increment.
const racy = `class Counter { field hits; }
setup {
  c = new Counter;
}
thread {
  for (i = 0; i < 100; i = i + 1) {
    h = c.hits;
    c.hits = h + 1;
  }
}
thread {
  for (i = 0; i < 100; i = i + 1) {
    h = c.hits;
    c.hits = h + 1;
  }
}
`

// clean is race free: each thread owns its object.
const clean = `class Cell { field v; }
setup {
  a = new Cell;
  b = new Cell;
}
thread {
  for (i = 0; i < 50; i = i + 1) { a.v = i; }
}
thread {
  for (i = 0; i < 50; i = i + 1) { b.v = i; }
}
`

// spinner runs long enough to exceed tight step and time budgets.
const spinner = `class C { field v; }
setup { c = new C; }
thread {
  for (i = 0; i < 1000000; i = i + 1) { c.v = i; }
}
`

func buildAll(t *testing.T, src string) (*Engine, *Artifact) {
	t.Helper()
	e := New(Options{})
	art, hit, err := e.BuildSource(src, BuildSpec{WithBase: true})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("uncached engine reported a cache hit")
	}
	return e, art
}

func TestBuildSourceAllVariants(t *testing.T) {
	_, art := buildAll(t, racy)
	if len(art.Variants) != len(VariantNames) {
		t.Fatalf("got %d variants, want %d", len(art.Variants), len(VariantNames))
	}
	for i, name := range VariantNames {
		v := art.Variants[i]
		if v.Name != name {
			t.Errorf("variant %d = %s, want %s (canonical order)", i, v.Name, name)
		}
		if art.Variant(name) != v {
			t.Errorf("Variant(%s) lookup mismatch", name)
		}
	}
	if art.Base == nil {
		t.Error("WithBase did not compile the base artifact")
	}
	if art.Hash == "" || art.Hash != SourceHash(racy) {
		t.Errorf("artifact hash %q, want content hash", art.Hash)
	}
	// FT and SS share the every-access placement; RC and SC share the
	// RedCard placement — compile-once applies within one artifact.
	if art.Variant("FT").Compiled != art.Variant("SS").Compiled {
		t.Error("FT and SS should share one compilation")
	}
	if art.Variant("RC").Compiled != art.Variant("SC").Compiled {
		t.Error("RC and SC should share one compilation")
	}
	if art.Variant("BF").Compiled == art.Variant("FT").Compiled {
		t.Error("BF must have its own compilation")
	}
}

func TestVariantSubsetAndValidation(t *testing.T) {
	e := New(Options{})
	art, _, err := e.BuildSource(racy, BuildSpec{Variants: []string{"BF", "FT", "FT"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Variants) != 2 || art.Variants[0].Name != "FT" || art.Variants[1].Name != "BF" {
		t.Fatalf("subset not normalized to canonical order: %+v", art.Variants)
	}
	if art.Base != nil {
		t.Error("base compiled without WithBase")
	}
	_, _, err = e.BuildSource(racy, BuildSpec{Variants: []string{"XX"}})
	var usage *UsageError
	if !errors.As(err, &usage) {
		t.Fatalf("unknown variant: got %v, want UsageError", err)
	}
}

func TestBuildErrorsAreProgramFaults(t *testing.T) {
	e := New(Options{})
	_, _, err := e.BuildSource("class {", BuildSpec{})
	var be *BuildError
	if !errors.As(err, &be) || be.Variant != "parse" {
		t.Fatalf("parse failure: got %v, want BuildError{parse}", err)
	}
	if IsBudget(err) {
		t.Error("a parse failure is not budget exhaustion")
	}
}

func TestRunDetectsRaces(t *testing.T) {
	e, art := buildAll(t, racy)
	for _, v := range art.Variants {
		out, err := e.Run(context.Background(), v, RunSpec{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if len(out.Races) == 0 {
			t.Errorf("%s: missed the race", v.Name)
		}
		if out.Variant != v.Name {
			t.Errorf("outcome variant %q, want %q", out.Variant, v.Name)
		}
		if out.Counters.Steps == 0 || out.ShadowOps == 0 {
			t.Errorf("%s: empty counters: %+v", v.Name, out)
		}
	}
	out, err := e.RunBase(context.Background(), art.Base, RunSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.ShadowOps != 0 || len(out.Races) != 0 {
		t.Errorf("base run has detector state: %+v", out)
	}
}

func TestCountChecksSplit(t *testing.T) {
	e, art := buildAll(t, racy)
	out, err := e.Run(context.Background(), art.Variant("FT"), RunSpec{Seed: 1, CountChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.FieldChecks+out.ArrayChecks != out.Counters.CheckItems {
		t.Errorf("split %d+%d != executed check items %d",
			out.FieldChecks, out.ArrayChecks, out.Counters.CheckItems)
	}
	if out.FieldChecks == 0 {
		t.Error("field-only program counted no field checks")
	}
}

func TestStepBudget(t *testing.T) {
	e, art := buildAll(t, spinner)
	out, err := e.Run(context.Background(), art.Variant("BF"), RunSpec{Seed: 1, MaxSteps: 1000})
	if !errors.Is(err, interp.ErrStepLimit) {
		t.Fatalf("got %v, want ErrStepLimit", err)
	}
	if !IsBudget(err) {
		t.Error("step limit must classify as budget exhaustion")
	}
	if out == nil || out.Counters.Steps == 0 {
		t.Error("budget failure must still return partial counters")
	}
}

func TestWallBudget(t *testing.T) {
	e, art := buildAll(t, spinner)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := e.Run(ctx, art.Variant("FT"), RunSpec{Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if !IsBudget(err) {
		t.Error("deadline must classify as budget exhaustion")
	}
}

func TestContextCancellation(t *testing.T) {
	e, art := buildAll(t, spinner)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Run(ctx, art.Variant("FT"), RunSpec{Seed: 1})
	if !errors.Is(err, context.Canceled) || !IsBudget(err) {
		t.Fatalf("got %v, want Canceled (budget)", err)
	}
}

// TestConcurrentSharedCompiled is the -race precondition for the
// artifact cache: one artifact (every variant plus base) hammered from
// many goroutines concurrently, across seeds, must be free of data
// races and produce seed-deterministic outcomes.
func TestConcurrentSharedCompiled(t *testing.T) {
	e, art := buildAll(t, racy)
	const goroutines = 16
	const seeds = 4

	type key struct {
		variant string
		seed    int64
	}
	want := map[key]string{}
	for _, v := range art.Variants {
		for s := int64(0); s < seeds; s++ {
			out, err := e.Run(context.Background(), v, RunSpec{Seed: s, CountChecks: true})
			if err != nil {
				t.Fatal(err)
			}
			want[key{v.Name, s}] = outcomeFingerprint(out)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*seeds; i++ {
				s := int64((g + i) % seeds)
				v := art.Variants[(g+i)%len(art.Variants)]
				out, err := e.Run(context.Background(), v, RunSpec{Seed: s, CountChecks: true})
				if err != nil {
					errs <- err
					return
				}
				if got := outcomeFingerprint(out); got != want[key{v.Name, s}] {
					errs <- errors.New(v.Name + ": concurrent outcome diverged: " + got)
					return
				}
				if _, err := e.RunBase(context.Background(), art.Base, RunSpec{Seed: s}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// outcomeFingerprint renders every deterministic outcome field.
func outcomeFingerprint(o *Outcome) string {
	var b strings.Builder
	b.WriteString(o.Variant)
	for _, u := range []uint64{
		o.Counters.Steps, o.Counters.Accesses(), o.Counters.CheckItems,
		o.Counters.SyncOps, o.ShadowOps, o.FootprintOps, o.PeakWords,
		o.FieldChecks, o.ArrayChecks, uint64(len(o.Races)),
	} {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(u, 10))
	}
	for _, r := range o.Races {
		b.WriteByte('|')
		b.WriteString(r.Desc)
	}
	return b.String()
}
