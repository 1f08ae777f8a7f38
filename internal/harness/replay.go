package harness

// Offline re-analysis: ReplayDir rebuilds a full harness Report from a
// directory of recorded traces (Options.TraceDir) without
// re-interpreting any program.  Every deterministic report field —
// counters, modeled overheads, check ratios and splits, shadow sizes,
// races, array modes — is reconstructed from the traces alone, so the
// replayed Report's Signature is byte-identical to the live run's.
// Wall-clock fields (BaseTime, Time, EventsPerSec) measure the replay
// itself: pure detection time, the offline-analysis throughput.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bigfoot/internal/engine"
	"bigfoot/internal/workloads"
)

// TraceExt is the file extension ReplayDir scans for and the harness
// records under.
const TraceExt = ".bftrace"

// replayGroup collects one program's replayed configurations.
type replayGroup struct {
	base     *engine.Replayed
	variants map[string]*engine.Replayed
}

// ReplayDir replays every *.bftrace under dir and aggregates the
// results into a Report, grouping traces by the program named in their
// headers.  Each program needs its base trace (for the overhead
// denominators); detector traces are aggregated in canonical order.
// Programs appear in workload-catalog order (the live report's order),
// with unknown program names appended alphabetically.
func ReplayDir(dir string, opts Options) (*Report, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), TraceExt) {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("replay %s: no %s files", dir, TraceExt)
	}
	sort.Strings(files)

	groups := map[string]*replayGroup{}
	for _, name := range files {
		res, err := replayFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", name, err)
		}
		prog := res.Header.Program
		g := groups[prog]
		if g == nil {
			g = &replayGroup{variants: map[string]*engine.Replayed{}}
			groups[prog] = g
		}
		if res.Header.Variant == engine.BaseVariant {
			g.base = res
		} else {
			g.variants[res.Header.Variant] = res
		}
	}

	var rs []*ProgramResult
	for _, prog := range orderPrograms(groups) {
		pr, err := assembleReplay(prog, groups[prog])
		if err != nil {
			return nil, err
		}
		rs = append(rs, pr)
	}
	return NewReport(opts, rs), nil
}

// replayFile replays a single trace with full accounting enabled.
func replayFile(path string) (*engine.Replayed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := engine.Replay(f, engine.ReplaySpec{CountChecks: true})
	if err != nil {
		return nil, err
	}
	if res.RunErr != nil {
		return nil, res.RunErr
	}
	return res, nil
}

// orderPrograms sorts program names into the live report's order: the
// workload catalog's sequence first, then unknown names alphabetically.
func orderPrograms(groups map[string]*replayGroup) []string {
	index := map[string]int{}
	for i, w := range workloads.All(workloads.DefaultScale()) {
		index[w.Name] = i
	}
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ii, iok := index[names[i]]
		ji, jok := index[names[j]]
		switch {
		case iok && jok:
			return ii < ji
		case iok != jok:
			return iok // catalog programs first
		default:
			return names[i] < names[j]
		}
	})
	return names
}

// assembleReplay builds one program's result from its replayed
// outcomes, through the same addOutcome a live run's finalize uses.
func assembleReplay(prog string, g *replayGroup) (*ProgramResult, error) {
	if g.base == nil {
		return nil, fmt.Errorf("replay %s: missing base trace (record with the harness's TraceDir so overhead denominators are available)", prog)
	}
	hdr := g.base.Header
	res := &ProgramResult{
		Name:            prog,
		Suite:           hdr.Suite,
		MethodsAnalyzed: hdr.Bodies,
		ChecksInserted:  hdr.Placed,
		Detectors:       map[string]*DetectorResult{},
	}
	res.addOutcome(engine.BaseVariant, g.base.Outcome, g.base.Outcome.Duration)
	for _, name := range DetectorNames {
		if rp := g.variants[name]; rp != nil {
			res.Phases.Run += rp.Outcome.Duration
			res.addOutcome(name, rp.Outcome, rp.Outcome.Duration)
		}
	}
	return res, nil
}
