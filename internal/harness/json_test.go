package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"bigfoot/internal/engine"
	"bigfoot/internal/workloads"
)

// reportAt runs three representative workloads at the given worker
// count and wraps them in a Report.
func reportAt(t *testing.T, parallel int) *Report {
	t.Helper()
	r := &Runner{Opts: Options{
		Scale:    workloads.TestScale(),
		Seed:     7,
		Trials:   2,
		Parallel: parallel,
	}}
	var ws []workloads.Workload
	for _, name := range []string{"crypt", "tomcat", "sparse"} {
		w, ok := workloads.ByName(name, r.Opts.Scale)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		ws = append(ws, w)
	}
	rs, err := r.runWorkloads(context.Background(), ws)
	if err != nil {
		t.Fatal(err)
	}
	return NewReport(r.Opts, rs)
}

// renderAll concatenates every paper artifact the report can produce.
func renderAll(rep *Report) string {
	return rep.Figure2() + rep.Figure8() + rep.Table1() + rep.Table1Wall() + rep.Table2()
}

// TestReportJSONRoundTrip pins the report contract: at any worker
// count, serializing a report and reading it back regenerates
// byte-identical Figure 2/8 and Table 1/2 text and an identical
// deterministic signature.
func TestReportJSONRoundTrip(t *testing.T) {
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		rep := reportAt(t, par)
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("parallel %d: write: %v", par, err)
		}
		got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("parallel %d: read back: %v", par, err)
		}
		if want := renderAll(rep); renderAll(got) != want {
			t.Errorf("parallel %d: rendered text changed across JSON round-trip", par)
		}
		if got.Signature() != rep.Signature() {
			t.Errorf("parallel %d: signature changed across JSON round-trip", par)
		}
		// The on-disk form re-serializes identically, so committed
		// report files are stable under load/save cycles.
		var buf2 bytes.Buffer
		if err := got.WriteJSON(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Errorf("parallel %d: JSON not stable under round-trip", par)
		}
	}
}

// TestReportPhaseTimings: the job-queue runner records per-phase costs
// for every program.
func TestReportPhaseTimings(t *testing.T) {
	rep := reportAt(t, 2)
	for _, p := range rep.Programs {
		ph := p.Phases
		if ph.Parse <= 0 || ph.Instrument <= 0 || ph.Compile <= 0 || ph.Run <= 0 {
			t.Errorf("%s: phase timings not collected: %+v", p.Name, ph)
		}
		// Run sums every (variant, trial) execution: 6 variants × 2
		// trials, each at least as long as the single best base trial.
		if ph.Run < p.BaseTime {
			t.Errorf("%s: run phase %v below one base execution %v", p.Name, ph.Run, p.BaseTime)
		}
	}
}

// TestReadJSONRejectsBadReports: version skew and structural damage
// fail loudly instead of rendering as garbage.
func TestReadJSONRejectsBadReports(t *testing.T) {
	rep := reportAt(t, 1)
	good, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   string
		frag string
	}{
		{"version skew", strings.Replace(string(good), fmt.Sprintf(`"version":%d`, ReportVersion), `"version":99`, 1), "schema version"},
		{"pre-history version", strings.Replace(string(good), fmt.Sprintf(`"version":%d`, ReportVersion), fmt.Sprintf(`"version":%d`, minReadVersion-1), 1), "schema version"},
		{"truncated", string(good[:len(good)/2]), "report"},
		{"unknown field", `{"version":1,"programs":[],"bogus":3}`, "bogus"},
		{"unknown detector field", strings.Replace(string(good), `"time_ns":`, `"bogus_ns":1,"time_ns":`, 1), "bogus_ns"},
		{"nameless program", `{"version":1,"run":{"scale_n":1,"scale_t":2,"seed":7,"trials":2,"parallel":1,"max_steps":0},"programs":[{"suite":"x"}]}`, "no name"},
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error = %v, want mention of %q", c.name, err, c.frag)
		}
	}
}

// TestReadJSONAcceptsV1Reports: older schemas still read, render, and
// sign as their source does.  A v4 file carries the three pipeline keys
// that v5 dropped; a v1 file — the committed trajectory before v2 — has
// no race_reports.
func TestReadJSONAcceptsV1Reports(t *testing.T) {
	rep := reportAt(t, 1)
	stamp := func(in []byte, version int) string {
		return strings.Replace(string(in), fmt.Sprintf(`"version":%d`, ReportVersion), fmt.Sprintf(`"version":%d`, version), 1)
	}
	check := func(in string, version int) {
		t.Helper()
		got, err := ReadJSON(strings.NewReader(in))
		if err != nil {
			t.Fatalf("v%d report rejected: %v", version, err)
		}
		if got.Version != version {
			t.Fatalf("version = %d, want %d", got.Version, version)
		}
		if want := renderAll(rep); renderAll(got) != want {
			t.Errorf("v%d report renders differently from its source", version)
		}
		if got.Signature() != rep.Signature() {
			t.Errorf("v%d report signs differently from its source", version)
		}
	}

	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	v4 := stamp(bytes.ReplaceAll(buf, []byte(`"time_ns":`),
		[]byte(`"pipeline_chunks":3,"pipeline_max_depth":2,"pipeline_stall_ns":1500,"time_ns":`)), 4)
	if n, want := strings.Count(v4, `"pipeline_chunks"`), 3*len(engine.VariantNames); n != want {
		t.Fatalf("v4 fixture carries %d pipeline_chunks keys, want %d", n, want)
	}
	check(v4, 4)

	// Rewrite as a v1 report: drop the v2-only field and stamp version 1.
	for _, p := range rep.Programs {
		for _, d := range p.Detectors {
			d.RaceReports = nil
		}
	}
	if buf, err = json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	check(stamp(buf, 1), 1)
}
