package bigfoot_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"bigfoot"
	"bigfoot/internal/metrics"
)

const racySrc = `
class Cell { field v; }
setup { c = new Cell; }
thread { c.v = 1; }
thread { c.v = 2; }
`

const cleanSrc = `
class Cell { field v; }
setup { c = new Cell; l = new Cell; }
thread { acquire l; c.v = 1; release l; }
thread { acquire l; c.v = 2; release l; }
`

func TestCheckRacesConvenience(t *testing.T) {
	races, err := bigfoot.CheckRaces(racySrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(races) != 1 {
		t.Fatalf("races: %v", races)
	}
	if !strings.Contains(races[0].Location, "Cell#0.v") {
		t.Errorf("location: %q", races[0].Location)
	}

	races, err = bigfoot.CheckRaces(cleanSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(races) != 0 {
		t.Errorf("clean program reported races: %v", races)
	}
}

func TestParseError(t *testing.T) {
	if _, err := bigfoot.Parse("setup { x = ; }"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := bigfoot.CheckRaces("class {", 0); err == nil {
		t.Error("expected error from CheckRaces")
	}
}

func TestAllModesRunAndAgree(t *testing.T) {
	prog := bigfoot.MustParse(racySrc)
	for _, m := range []bigfoot.Mode{
		bigfoot.FastTrack, bigfoot.RedCard, bigfoot.SlimState,
		bigfoot.SlimCard, bigfoot.BigFoot,
	} {
		rep, err := prog.Instrument(m).Run(bigfoot.RunConfig{Seed: 0})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(rep.Races) != 1 {
			t.Errorf("%s found %d races, want 1", m, len(rep.Races))
		}
	}
}

func TestInstrumentedTextShowsChecks(t *testing.T) {
	prog := bigfoot.MustParse(racySrc)
	text := prog.Instrument(bigfoot.BigFoot).Text()
	if !strings.Contains(text, "check write(c.v)") {
		t.Errorf("instrumented text lacks the placed check:\n%s", text)
	}
	// The original program is unchanged.
	if strings.Contains(prog.Text(), "check") {
		t.Error("Instrument mutated the original program")
	}
}

func TestRunConfigOutput(t *testing.T) {
	prog := bigfoot.MustParse(`
setup { print 1 + 2; }
`)
	var buf bytes.Buffer
	if _, err := prog.Instrument(bigfoot.BigFoot).Run(bigfoot.RunConfig{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "3" {
		t.Errorf("output %q", buf.String())
	}
}

// facadeSeries sums the values and the observation counts of family
// name's series in the facade's registry: the series labelled
// variant=variant, or all of them when variant is "".
func facadeSeries(name, variant string) (value float64, count uint64) {
	for _, f := range bigfoot.Metrics().Snapshot() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if variant == "" || slices.Contains(s.Labels, metrics.Label{Name: "variant", Value: variant}) {
				value += s.Value
				count += s.Count
			}
		}
	}
	return value, count
}

// TestBuildsAreMetered: the facade instruments and compiles through the
// engine's metered build path, so a BigFoot build adds its analysis
// work and one BF build-time sample to Metrics().
func TestBuildsAreMetered(t *testing.T) {
	queries, _ := facadeSeries("bigfoot_engine_analysis_queries_total", "")
	_, builds := facadeSeries("bigfoot_engine_build_seconds", "BF")
	inst := bigfoot.MustParse(`
setup { a = newarray 8; }
thread { for (i = 0; i < 8; i = i + 1) { a[i] = i; } }
`).Instrument(bigfoot.BigFoot)
	if _, err := inst.Compile(); err != nil {
		t.Fatal(err)
	}
	want := queries + float64(inst.Stats.Queries)
	if got, _ := facadeSeries("bigfoot_engine_analysis_queries_total", ""); got != want || inst.Stats.Queries == 0 {
		t.Errorf("analysis_queries_total = %v, want %v (%d queries)", got, want, inst.Stats.Queries)
	}
	if _, got := facadeSeries("bigfoot_engine_build_seconds", "BF"); got != builds+1 {
		t.Errorf("build_seconds{variant=BF} count = %d, want %d", got, builds+1)
	}
}

// TestRunBase: a base run goes through the engine, so it is metered and
// honors RunConfig's Trace and Record; the recorded trace replays as
// variant "base" with the same accesses.
func TestRunBase(t *testing.T) {
	prog := bigfoot.MustParse(racySrc)
	before, _ := facadeSeries("bigfoot_engine_runs_total", "base")
	rec := bigfoot.NewRecorder(0)
	var buf bytes.Buffer
	acc, err := prog.RunBase(bigfoot.RunConfig{Seed: 0, Trace: rec, Record: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if acc != 2 {
		t.Errorf("accesses = %d, want 2", acc)
	}
	if rec.Len() == 0 {
		t.Error("base run recorded no events into the Recorder")
	}
	if got, _ := facadeSeries("bigfoot_engine_runs_total", "base"); got != before+1 {
		t.Errorf("runs_total{variant=base} = %v, want %v", got, before+1)
	}
	rep, variant, err := bigfoot.ReplayTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if variant != "base" {
		t.Errorf("replayed variant = %q, want base", variant)
	}
	if rep.Accesses != acc {
		t.Errorf("replayed accesses = %d, want %d", rep.Accesses, acc)
	}
}

func TestReportCounters(t *testing.T) {
	src := `
setup { a = newarray 100; }
thread { for (i = 0; i < 100; i = i + 1) { a[i] = i; } }
thread { x = 0; }
`
	prog := bigfoot.MustParse(src)
	ft, err := prog.Instrument(bigfoot.FastTrack).Run(bigfoot.RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := prog.Instrument(bigfoot.BigFoot).Run(bigfoot.RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ft.CheckRatio != 1.0 {
		t.Errorf("FastTrack ratio = %f", ft.CheckRatio)
	}
	if bf.CheckRatio > 0.1 {
		t.Errorf("BigFoot ratio = %f, want near zero", bf.CheckRatio)
	}
	if bf.ShadowOps >= ft.ShadowOps {
		t.Errorf("BF shadow ops %d should be below FT %d", bf.ShadowOps, ft.ShadowOps)
	}
}

func TestAnalysisStatsExposed(t *testing.T) {
	prog := bigfoot.MustParse(racySrc)
	inst := prog.Instrument(bigfoot.BigFoot)
	if inst.Stats.ChecksPlaced == 0 {
		t.Error("BigFoot instrumentation should place checks")
	}
	if inst.Stats.BodiesAnalyzed == 0 {
		t.Error("bodies analyzed not recorded")
	}
}

func TestModeString(t *testing.T) {
	if bigfoot.BigFoot.String() != "BigFoot" || bigfoot.FastTrack.String() != "FastTrack" {
		t.Error("mode names wrong")
	}
}
