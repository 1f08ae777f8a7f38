package engine

import (
	"fmt"
	"io"
	"time"

	"bigfoot/internal/detector"
	"bigfoot/internal/proxy"
	"bigfoot/internal/trace"
)

// ReplaySpec configures one offline replay of a recorded trace.
type ReplaySpec struct {
	// Variant, when non-empty, re-analyzes the trace under a different
	// detector than the one it was recorded with.  The replacement must
	// share the recorded variant's check placement (FT↔SS every-access,
	// RC↔SC RedCard) — a trace contains one placement's check stream, so
	// replaying it under an incompatible placement would not reproduce
	// that detector's live behavior and is rejected as a usage error.
	Variant string
	// Trace, when non-nil, re-records the replayed stream (hook events
	// plus the detector's re-derived observer events) into a ring
	// recorder, exactly as a live run would.
	Trace *trace.Recorder
	// CountChecks tallies field vs. array check items (Figure 8 split).
	CountChecks bool
	// DebugCensus cross-checks the detector's space census during
	// replay.
	DebugCensus bool
}

// Replayed is the result of one trace replay: the recorded identity
// plus a fully populated Outcome — interpreter counters from the
// trace's footer, detector findings and costs re-derived by running the
// real detector over the replayed stream.
type Replayed struct {
	Header trace.Header
	// Outcome mirrors a live run's outcome.  Duration is the replay's
	// own wall-clock time (detection only — no interpretation), which is
	// exactly what an events/sec throughput metric wants.
	Outcome *Outcome
	// RunErr is the recorded run's own failure (step limit, timeout,
	// fault), reconstructed from the footer; nil when the run succeeded.
	RunErr error
}

// placementFamily groups variants by the instrumented artifact their
// check stream comes from (BuildAST shares placements the same way).
func placementFamily(name string) string {
	switch name {
	case "FT", "SS":
		return "every-access"
	case "RC", "SC":
		return "redcard"
	case "BF":
		return "bigfoot"
	}
	return name
}

// Replay feeds a recorded trace through a detector without
// re-interpreting the program.  The stream is observationally identical
// to the live run's hook stream, so every deterministic detector value
// (shadow ops, footprint ops, peak words, races, array modes) is
// reproduced exactly; interpreter counters come from the trace footer.
//
// Base traces (variant "base") replay without a detector and reproduce
// the base counters; requesting a detector variant for one is a usage
// error.
func Replay(r io.Reader, spec ReplaySpec) (*Replayed, error) {
	rd, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	hdr := rd.Header()

	name := hdr.Variant
	if spec.Variant != "" && spec.Variant != hdr.Variant {
		if !IsVariantName(spec.Variant) {
			return nil, &UsageError{Msg: "unknown detector variant " + spec.Variant}
		}
		if hdr.Variant == BaseVariant {
			return nil, &UsageError{Msg: "trace records an uninstrumented base run; it has no check stream to replay under " + spec.Variant}
		}
		if placementFamily(spec.Variant) != placementFamily(hdr.Variant) {
			return nil, &UsageError{Msg: fmt.Sprintf(
				"trace records the %s placement (%s); %s uses the %s placement — record under %s to replay it",
				placementFamily(hdr.Variant), hdr.Variant, spec.Variant, placementFamily(spec.Variant), spec.Variant)}
		}
		name = spec.Variant
	}

	res := &Replayed{Header: hdr, Outcome: &Outcome{Variant: name}}
	var d *detector.Detector
	if name != BaseVariant {
		d = detector.New(detector.Config{
			Name:        name,
			Footprints:  footprintsFor(name),
			Proxies:     proxy.FromPairs(hdr.ProxyRep),
			DebugCensus: spec.DebugCensus,
		})
	}
	// Nothing is recorded, so building the chain cannot fail.
	hooks, _ := newChain(d, RunSpec{Trace: spec.Trace, CountChecks: spec.CountChecks}, name, nil)

	start := time.Now()
	_, err = rd.Replay(hooks.hook)
	res.Outcome.Duration = time.Since(start)
	if err != nil {
		return res, err
	}
	ftr := rd.Footer()
	res.Outcome.Counters = ftr.Counters
	if ftr.Err != "" {
		res.RunErr = fmt.Errorf("recorded run failed: %s", ftr.Err)
	}
	hooks.fill(res.Outcome)
	return res, nil
}
