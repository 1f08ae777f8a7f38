// Command bfbench regenerates the paper's evaluation artifacts: Figure 2
// (detector comparison), Figure 8 (check ratios and relative overhead),
// Table 1 (checker performance), and Table 2 (space overhead).
//
// Usage:
//
//	bfbench [-figure2] [-figure8] [-table1] [-table2] [-all]
//	        [-scale N] [-threads T] [-trials K] [-seed S] [-program name]
//	        [-parallel N] [-timeout D] [-explain-races]
//	        [-trace-rec dir] [-signature path] [-json path]
//	        [-cpuprofile f] [-memprofile f] [-trace f] [-metrics-out f]
//	bfbench -trace-replay dir [-signature path] [-json path] ...
//	bfbench -json-check path [-signature path]
//
// -trace-rec records trial 0 of every configuration into dir as
// compressed .bftrace files; -trace-replay re-analyzes such a directory
// offline (no interpretation) and renders/serializes the reconstructed
// report through the same views.  -signature writes the report's
// deterministic signature to a file, so live and replayed runs can be
// compared byte-for-byte (the CI trace-replay job does exactly that).
//
// Without a selection flag, -all is assumed.  -parallel bounds the
// evaluation worker pool (0 = GOMAXPROCS); results are identical at any
// worker count.  -timeout cancels the run, rendering whatever completed.
//
// -metrics-out dumps the run's metrics registry (engine latencies,
// cache traffic, detector work counters) in the Prometheus text
// exposition format at exit — the batch-tool equivalent of scraping
// bigfootd's GET /metrics ("-" writes to stderr).  Unless -q is set, a
// long evaluation also prints a periodic stderr heartbeat (programs
// done, elapsed time) so a minutes-long run is distinguishable from a
// hang.
//
// -json writes the structured, versioned report (the same data the text
// tables render — see harness.Report).  -json-check validates an
// existing report file (schema version, shape, renderability) and exits
// without running any workload; with -signature it also writes that
// report's signature, so a stored report is compared with a fresh run
// by diffing the two signature files.
//
// Exit codes: 0 clean; 1 workload failures or timeout cancellation
// (partial tables/JSON are still emitted); 2 usage errors; 3 report
// I/O or validation failures.  A truncated sweep therefore never exits
// 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"bigfoot/internal/engine"
	"bigfoot/internal/harness"
	"bigfoot/internal/metrics"
	"bigfoot/internal/profiling"
	"bigfoot/internal/workloads"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		fig2      = flag.Bool("figure2", false, "print Figure 2 (detector comparison + mean overhead)")
		fig8      = flag.Bool("figure8", false, "print Figure 8 (check ratios, BF/FT overhead)")
		tab1      = flag.Bool("table1", false, "print Table 1 (checker performance)")
		tab2      = flag.Bool("table2", false, "print Table 2 (space overhead)")
		all       = flag.Bool("all", false, "print every artifact")
		scale     = flag.Int("scale", 1, "workload size multiplier")
		threads   = flag.Int("threads", 4, "worker threads per program")
		trials    = flag.Int("trials", 3, "timing trials per configuration (median)")
		seed      = flag.Int64("seed", 42, "scheduler seed")
		program   = flag.String("program", "", "run a single named workload")
		parallel  = flag.Int("parallel", 0, "evaluation worker count (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "cancel the run after this duration (0 = none)")
		quiet     = flag.Bool("q", false, "suppress progress lines")
		jsonOut   = flag.String("json", "", "write the structured JSON report to this file")
		jsonCheck = flag.String("json-check", "", "validate an existing JSON report and exit (no run); with -signature, write its signature")
		explain   = flag.Bool("explain-races", false, "print per-detector race provenance (both access sites)")
		traceRec  = flag.String("trace-rec", "", "record trial 0 of every configuration as compressed traces into this directory")
		traceRep  = flag.String("trace-replay", "", "replay a -trace-rec directory offline instead of running workloads")
		sigOut    = flag.String("signature", "", "write the report's deterministic signature to this file")
	)
	var prof profiling.Config
	prof.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bfbench: unexpected arguments %q\n", flag.Args())
		return 2
	}
	if !*fig2 && !*fig8 && !*tab1 && !*tab2 {
		*all = true
	}

	if *jsonCheck != "" {
		rep, err := harness.ReadJSONFile(*jsonCheck)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfbench: %v\n", err)
			return 3
		}
		// A valid report must also render: exercise every view so a
		// committed report is known-good for later comparisons.
		_ = rep.Summary()
		if code := writeSignature(rep, *sigOut); code != 0 {
			return code
		}
		fmt.Printf("%s: valid report (version %d, %d programs)\n", *jsonCheck, rep.Version, len(rep.Programs))
		return 0
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfbench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "bfbench: %v\n", err)
		}
	}()

	// One registry backs the whole evaluation; -metrics-out dumps it at
	// exit, the batch analogue of scraping bigfootd's GET /metrics.
	reg := metrics.NewRegistry()
	defer func() {
		if err := prof.WriteMetrics(reg); err != nil {
			fmt.Fprintf(os.Stderr, "bfbench: %v\n", err)
		}
	}()

	opts := harness.Options{
		Scale:    workloads.Scale{N: *scale, T: *threads},
		Seed:     *seed,
		Trials:   *trials,
		Parallel: *parallel,
	}
	if *traceRec != "" {
		if *traceRep != "" {
			fmt.Fprintln(os.Stderr, "bfbench: -trace-rec and -trace-replay are mutually exclusive")
			return 2
		}
		if err := os.MkdirAll(*traceRec, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "bfbench: %v\n", err)
			return 2
		}
		opts.TraceDir = *traceRec
	}
	r := &harness.Runner{Opts: opts, Engine: engine.New(engine.Options{Metrics: reg})}
	if !*quiet {
		var progsDone atomic.Int64
		r.Progress = func(line string) {
			progsDone.Add(1)
			fmt.Fprintln(os.Stderr, line)
		}
		start := time.Now()
		stopHB := startHeartbeat(evalHeartbeatEvery, func() string {
			return fmt.Sprintf("bfbench: alive: %d programs done, elapsed %s",
				progsDone.Load(), time.Since(start).Round(time.Second))
		})
		defer stopHB()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var rep *harness.Report
	var runErr error
	switch {
	case *traceRep != "":
		// Offline re-analysis: rebuild the report from recorded traces
		// without interpreting anything.
		var err error
		rep, err = harness.ReplayDir(*traceRep, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bfbench: %v\n", err)
			return 3
		}
	case *program != "":
		w, ok := workloads.ByName(*program, opts.Scale)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown program %q\n", *program)
			return 2
		}
		var pr *harness.ProgramResult
		pr, runErr = r.RunProgramContext(ctx, w)
		var rs []*harness.ProgramResult
		if pr != nil {
			rs = append(rs, pr)
		}
		rep = harness.NewReport(opts, rs)
	default:
		rep, runErr = r.RunReport(ctx)
	}
	code := 0
	if runErr != nil {
		// Failed or cancelled workloads are reported; completed programs
		// still render (and serialize) below, but the exit stays non-zero
		// so CI cannot mistake a truncated sweep for a clean one.
		fmt.Fprintf(os.Stderr, "bfbench: %v\n", runErr)
		code = 1
	}

	if len(rep.Programs) > 0 {
		if *all || *fig2 {
			fmt.Println(rep.Figure2())
		}
		if *all || *fig8 {
			fmt.Println(rep.Figure8())
		}
		if *all || *tab1 {
			fmt.Println(rep.Table1())
			fmt.Println(rep.Table1Wall())
		}
		if *all || *tab2 {
			fmt.Println(rep.Table2())
		}
		if *explain {
			explainRaces(rep)
		}
	}

	if code := writeSignature(rep, *sigOut); code != 0 {
		return code
	}
	if *jsonOut != "" {
		if err := rep.WriteJSONFile(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "bfbench: write %s: %v\n", *jsonOut, err)
			return 3
		}
	}
	return code
}

// writeSignature writes rep's deterministic signature to path (nothing
// when path is empty) and returns the exit code: 0, or 3 on I/O failure.
func writeSignature(rep *harness.Report, path string) int {
	if path == "" {
		return 0
	}
	if err := os.WriteFile(path, []byte(rep.Signature()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bfbench: write %s: %v\n", path, err)
		return 3
	}
	return 0
}

// explainRaces prints the provenance-enriched race reports (schema v2)
// of every program and detector, two-sited where positions are known:
//
//	moldyn/BF: RACE on Particle#3.x: write at moldyn.bfj:42 by T2 races read at moldyn.bfj:17 by T1
//
// Workload sources are embedded, so positions are rendered against the
// synthetic file name <program>.bfj.
func explainRaces(rep *harness.Report) {
	for _, p := range rep.Programs {
		for _, name := range engine.VariantNames {
			dr := p.Detectors[name]
			if dr == nil {
				continue
			}
			for _, rr := range dr.RaceReports {
				fmt.Printf("%s/%s: %s\n", p.Name, name, raceLine(p.Name+".bfj", rr))
			}
		}
	}
}

func kindName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

func site(file, pos string) string {
	if pos == "" {
		return file + ":?"
	}
	// pos is "line:col"; the headline cites file:line.
	line := pos
	for i := 0; i < len(pos); i++ {
		if pos[i] == ':' {
			line = pos[:i]
			break
		}
	}
	return file + ":" + line
}

func raceLine(file string, rr harness.RaceReport) string {
	if rr.PrevPos == "" && rr.CurPos == "" {
		return fmt.Sprintf("RACE on %s between threads %d and %d", rr.Desc, rr.PrevTID, rr.CurTID)
	}
	return fmt.Sprintf("RACE on %s: %s at %s by T%d races %s at %s by T%d",
		rr.Desc,
		kindName(rr.CurWrite), site(file, rr.CurPos), rr.CurTID,
		kindName(rr.PrevWrite), site(file, rr.PrevPos), rr.PrevTID)
}
