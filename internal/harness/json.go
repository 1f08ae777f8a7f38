package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"bigfoot/internal/workloads"
)

// ReportVersion identifies the JSON report schema.  It is bumped on any
// change to the serialized field set or field names, so committed
// BENCH_*.json trajectories stay comparable: Diff and ReadJSON reject a
// report written by an unknown schema rather than misreading it.
//
// Version history:
//
//	1: initial schema.
//	2: adds DetectorResult.RaceReports (race provenance: both access
//	   sites with positions).  Purely additive, so v1 reports are still
//	   readable (see minReadVersion); v2 readers see no race reports in
//	   a v1 file.
//	3: adds DetectorResult.EventsPerSec (macro detection throughput).
//	   Additive and wall-clock derived (not diffed), so v1/v2 reports
//	   remain readable and comparable.
//	4: adds pipeline_chunks, pipeline_max_depth and pipeline_stall_ns
//	   to each detector result (transport cost of the asynchronous
//	   detection pipeline; omitted for synchronous runs).
//	5: drops those three fields along with the pipeline.  v4 reports
//	   still read: ReadJSON discards the three keys.
const ReportVersion = 5

// minReadVersion is the oldest schema ReadJSON still accepts.  Every
// version in [minReadVersion, ReportVersion] is a subset of the current
// field set plus the three v4 pipeline keys, which ReadJSON knows, so
// decoding with DisallowUnknownFields remains sound.
const minReadVersion = 1

// RunInfo records the configuration a report was produced under, so two
// reports can be checked for comparability before diffing.
type RunInfo struct {
	ScaleN   int    `json:"scale_n"`
	ScaleT   int    `json:"scale_t"`
	Seed     int64  `json:"seed"`
	Trials   int    `json:"trials"`
	Parallel int    `json:"parallel"`
	MaxSteps uint64 `json:"max_steps"`
}

// runInfoOf captures the options that affect reported numbers.
func runInfoOf(o Options) RunInfo {
	return RunInfo{
		ScaleN: o.Scale.N, ScaleT: o.Scale.T,
		Seed: o.Seed, Trials: o.Trials,
		Parallel: o.Parallel, MaxSteps: o.MaxSteps,
	}
}

// Report is the structured result of one harness run: everything the
// text renderers (Figure2, Figure8, Table1, Table1Wall, Table2) print,
// in machine-readable form.  The renderers are pure views over this
// type, so the JSON emitted by WriteJSON and the text tables can never
// disagree.  All fields except wall-clock timings (Time, WallOverhead,
// BaseTime, StaticTime, Phases) are deterministic for a given RunInfo.
type Report struct {
	Version  int              `json:"version"`
	Run      RunInfo          `json:"run"`
	Programs []*ProgramResult `json:"programs"`
}

// NewReport wraps a result set with its run configuration.
func NewReport(opts Options, rs []*ProgramResult) *Report {
	return &Report{Version: ReportVersion, Run: runInfoOf(opts), Programs: rs}
}

// RunReport evaluates every workload under the context and returns the
// structured report.  Like RunAllContext, a partial report plus the
// joined error is returned when workloads fail or the context is
// cancelled.
func (r *Runner) RunReport(ctx context.Context) (*Report, error) {
	rs, err := r.runWorkloads(ctx, workloads.All(r.Opts.Scale))
	return NewReport(r.Opts, rs), err
}

// MarshalJSON emits the versioned schema; a zero Version is stamped
// with the current ReportVersion so hand-built reports serialize
// validly.
func (rep *Report) MarshalJSON() ([]byte, error) {
	type plain Report // drop methods to avoid recursion
	p := plain(*rep)
	if p.Version == 0 {
		p.Version = ReportVersion
	}
	return json.Marshal(p)
}

// WriteJSON writes the report as indented, trailing-newline JSON —
// the stable on-disk form intended for committed BENCH_*.json files.
func (rep *Report) WriteJSON(w io.Writer) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteJSONFile writes the report to path (0644, truncating).
func (rep *Report) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := rep.WriteJSON(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// ReadJSON parses a report and validates its schema version and basic
// shape, so a truncated or foreign file fails loudly instead of
// diffing as "everything regressed".
func ReadJSON(r io.Reader) (*Report, error) {
	// The report's own types, except that each detector result also
	// knows the three pipeline keys a v4 report may carry, so exactly
	// those are read and dropped and any other unknown key is an error.
	var in struct {
		Report
		Programs []*struct {
			ProgramResult
			Detectors map[string]*struct {
				DetectorResult
				Chunks   uint64 `json:"pipeline_chunks"`
				MaxDepth int    `json:"pipeline_max_depth"`
				StallNS  int64  `json:"pipeline_stall_ns"`
			} `json:"detectors"`
		} `json:"programs"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	rep := in.Report
	if rep.Version < minReadVersion || rep.Version > ReportVersion {
		return nil, fmt.Errorf("report: schema version %d, this build reads %d..%d", rep.Version, minReadVersion, ReportVersion)
	}
	if in.Programs != nil {
		rep.Programs = make([]*ProgramResult, 0, len(in.Programs))
	}
	for i, p := range in.Programs {
		if p == nil || p.Name == "" {
			return nil, fmt.Errorf("report: program %d has no name", i)
		}
		if p.Detectors == nil {
			return nil, fmt.Errorf("report: program %s has no detector results", p.Name)
		}
		res := p.ProgramResult
		res.Detectors = make(map[string]*DetectorResult, len(p.Detectors))
		for name, d := range p.Detectors {
			var dr *DetectorResult
			if d != nil {
				dr = &d.DetectorResult
			}
			res.Detectors[name] = dr
		}
		rep.Programs = append(rep.Programs, &res)
	}
	return &rep, nil
}

// ReadJSONFile reads and validates a report from path.
func ReadJSONFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
