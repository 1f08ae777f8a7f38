package engine

import (
	"fmt"
	"io"
	"time"

	"bigfoot/internal/detector"
	"bigfoot/internal/proxy"
	"bigfoot/internal/trace"
)

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

// Replay feeds a recorded trace through the recorded variant's detector
// without re-interpreting the program.  The stream is observationally
// identical to the live run's hook stream, so every deterministic
// detector value (shadow ops, footprint ops, peak words, races, array
// modes) and the Figure 8 check split are reproduced exactly;
// interpreter counters come from the trace footer.  Base traces
// (variant "base") replay without a detector and reproduce the base
// counters.
func Replay(r io.Reader) (*Replayed, error) {
	rd, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	hdr := rd.Header()

	name := hdr.Variant
	res := &Replayed{Header: hdr, Outcome: &Outcome{Variant: name}}
	var d *detector.Detector
	if name != BaseVariant {
		d = detector.New(detector.Config{
			Name:       name,
			Footprints: footprintsFor(name),
			Proxies:    proxy.FromPairs(hdr.ProxyRep),
		})
	}
	// Nothing is recorded, so building the chain cannot fail.
	hooks, _ := newChain(d, RunSpec{CountChecks: true}, name, nil)

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
