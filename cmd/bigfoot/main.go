// Command bigfoot analyzes and runs a BFJ program with a chosen race
// detector.
//
// Usage:
//
//	bigfoot [-mode bigfoot|fasttrack|redcard|slimstate|slimcard]
//	        [-seed N] [-runs K] [-show] [-stats]
//	        [-trace-out f.json] [-trace-rec f.bftrace] [-explain-races]
//	        [-debug-census] [-cpuprofile f] [-memprofile f] [-trace f]
//	        [-metrics-out f] file.bfj
//	bigfoot -trace-replay f.bftrace [-stats] [-explain-races]
//
// -show prints the instrumented program (with placed checks) instead of
// running it.  -runs K explores K consecutive schedule seeds starting at
// -seed, compiling the program once and reusing the artifact for every
// run; races are deduplicated across seeds.  -trace-out records the
// first seed's execution and writes it as Chrome trace_event JSON (open
// in ui.perfetto.dev or chrome://tracing; one lane per thread).
// -trace-rec records the first seed's execution in the persistent
// compressed trace format; -trace-replay re-analyzes such a recording
// through the recorded detector without re-running the program (no
// .bfj argument needed), printing the same race report the live run
// printed.  -explain-races prints a per-race provenance block with both
// access sites.  -debug-census validates the detector's exact
// incremental space census against a full shadow walk at every
// synchronization operation (diagnostic only — the walk is the cost the
// incremental census removed).  The profiling flags capture
// runtime/pprof and runtime/trace output for `go tool pprof` /
// `go tool trace`; -metrics-out dumps the run's metrics registry
// (build/run latency, detector work counters) in the Prometheus text
// format at exit ("-" for stderr).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bigfoot"
	"bigfoot/internal/profiling"
)

var modes = map[string]bigfoot.Mode{
	"fasttrack": bigfoot.FastTrack,
	"ft":        bigfoot.FastTrack,
	"redcard":   bigfoot.RedCard,
	"rc":        bigfoot.RedCard,
	"slimstate": bigfoot.SlimState,
	"ss":        bigfoot.SlimState,
	"slimcard":  bigfoot.SlimCard,
	"sc":        bigfoot.SlimCard,
	"bigfoot":   bigfoot.BigFoot,
	"bf":        bigfoot.BigFoot,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		modeName = flag.String("mode", "bigfoot", "detector: fasttrack|redcard|slimstate|slimcard|bigfoot")
		seed     = flag.Int64("seed", 0, "first schedule seed")
		runs     = flag.Int("runs", 1, "number of consecutive seeds to run (compiled once)")
		show     = flag.Bool("show", false, "print the instrumented program and exit")
		stats    = flag.Bool("stats", false, "print check/shadow statistics and, under bigfoot, the static analysis's work")
		traceOut = flag.String("trace-out", "", "record the first seed's execution as Chrome trace_event JSON to this file")
		traceRec = flag.String("trace-rec", "", "record the first seed's execution as a compressed .bftrace to this file")
		traceRep = flag.String("trace-replay", "", "replay a recorded .bftrace through its detector instead of running a program")
		explain  = flag.Bool("explain-races", false, "print per-race provenance (both access sites)")
		debugCen = flag.Bool("debug-census", false, "cross-check the exact incremental space census against a full shadow walk at every sync op (slow; panics on mismatch)")
	)
	var prof profiling.Config
	prof.AddFlags(flag.CommandLine)
	flag.Parse()
	if *traceRep != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: bigfoot -trace-replay f.bftrace (no program argument)")
			return 2
		}
		return replayTrace(*traceRep, *stats, *explain)
	}
	if flag.NArg() != 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "usage: bigfoot [-mode M] [-seed N] [-runs K] [-show] [-stats] file.bfj")
		return 2
	}
	mode, ok := modes[strings.ToLower(*modeName)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeName)
		return 2
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	prog, err := bigfoot.Parse(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", flag.Arg(0), err)
		return 1
	}
	inst := prog.Instrument(mode)
	if *show {
		fmt.Print(inst.Text())
		return 0
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bigfoot: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "bigfoot: %v\n", err)
		}
		// The facade records every run in the process registry;
		// -metrics-out dumps it.
		if err := prof.WriteMetrics(bigfoot.Metrics()); err != nil {
			fmt.Fprintf(os.Stderr, "bigfoot: %v\n", err)
		}
	}()
	// Compile once; every seed below reuses the artifact.
	compiled, err := inst.Compile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "compile error: %v\n", err)
		return 1
	}
	if st := inst.Stats; *stats && st.BodiesAnalyzed > 0 {
		fmt.Fprintf(os.Stderr, "analysis: bodies=%d checks=%d items=%d blocks=%d/%d/%d iterations=%d/%d/%d solvers=%d queries=%d time=%.2fms\n",
			st.BodiesAnalyzed, st.ChecksPlaced, st.CheckItems,
			st.Blocks[0], st.Blocks[1], st.Blocks[2],
			st.Iterations[0], st.Iterations[1], st.Iterations[2],
			st.Solvers, st.Queries, st.AnalysisTime*1e3)
	}
	seen := make(map[string]bool)
	var races []bigfoot.Race
	for k := 0; k < *runs; k++ {
		s := *seed + int64(k)
		var out io.Writer
		var rec *bigfoot.Recorder
		var recFile *os.File
		if k == 0 {
			out = os.Stdout // print output once; later seeds only hunt races
			if *traceOut != "" {
				rec = bigfoot.NewRecorder(0) // trace the first seed only
			}
			if *traceRec != "" {
				recFile, err = os.Create(*traceRec)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bigfoot: %v\n", err)
					return 1
				}
			}
		}
		cfg := bigfoot.RunConfig{Seed: s, Out: out, Trace: rec, DebugCensus: *debugCen}
		if recFile != nil {
			cfg.Record = recFile
			cfg.RecordName = strings.TrimSuffix(filepath.Base(flag.Arg(0)), ".bfj")
		}
		rep, err := compiled.Run(cfg)
		if recFile != nil {
			if cerr := recFile.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err == nil {
				fmt.Fprintf(os.Stderr, "trace-rec: seed %d -> %s\n", s, *traceRec)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "runtime error (seed %d): %v\n", s, err)
			return 1
		}
		if rec != nil {
			if err := writeTrace(*traceOut, rec); err != nil {
				fmt.Fprintf(os.Stderr, "bigfoot: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "trace: %d events (%d dropped) -> %s\n", rec.Len(), rec.Dropped(), *traceOut)
		}
		if *stats && k == 0 {
			fmt.Fprintf(os.Stderr, "mode=%s accesses=%d checks=%d ratio=%.3f shadowOps=%d shadowWords=%d heldBytes=%d\n",
				mode, rep.Accesses, rep.Checks, rep.CheckRatio, rep.ShadowOps, rep.ShadowWords, rep.HeldBytes)
		}
		for _, r := range rep.Races {
			if !seen[r.Location] {
				seen[r.Location] = true
				races = append(races, r)
			}
		}
	}
	if len(races) == 0 {
		fmt.Fprintln(os.Stderr, "no races detected")
		return 0
	}
	file := filepath.Base(flag.Arg(0))
	for _, r := range races {
		fmt.Fprintln(os.Stderr, raceLine(file, r))
		if *explain {
			explainRace(os.Stderr, file, r)
		}
	}
	return 3
}

// replayTrace re-analyzes a recorded .bftrace offline: the persisted
// hook stream runs through the recorded detector, reproducing the live
// run's races and statistics without re-interpreting the program.
// Exit codes mirror a live run: 0 clean, 1 replay failure, 3 races.
func replayTrace(path string, stats, explain bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()
	rep, variant, err := bigfoot.ReplayTrace(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bigfoot: replay %s: %v\n", path, err)
		return 1
	}
	if stats {
		fmt.Fprintf(os.Stderr, "variant=%s accesses=%d checks=%d ratio=%.3f shadowOps=%d shadowWords=%d heldBytes=%d\n",
			variant, rep.Accesses, rep.Checks, rep.CheckRatio, rep.ShadowOps, rep.ShadowWords, rep.HeldBytes)
	}
	if len(rep.Races) == 0 {
		fmt.Fprintln(os.Stderr, "no races detected")
		return 0
	}
	file := filepath.Base(path)
	for _, r := range rep.Races {
		fmt.Fprintln(os.Stderr, raceLine(file, r))
		if explain {
			explainRace(os.Stderr, file, r)
		}
	}
	return 3
}

func kindName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

func site(file string, p bigfoot.Pos) string {
	if !p.IsValid() {
		return file + ":?"
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}

// raceLine renders the two-sited report, later access first:
//
//	RACE on Counter#1.hits: write at racy.bfj:9 by T2 races read at racy.bfj:8 by T1
//
// Falling back to the position-free form when neither site carries a
// source position (hand-written check statements).
func raceLine(file string, r bigfoot.Race) string {
	if !r.PrevPos.IsValid() && !r.CurPos.IsValid() {
		return fmt.Sprintf("RACE on %s between threads %d and %d", r.Location, r.Threads[0], r.Threads[1])
	}
	return fmt.Sprintf("RACE on %s: %s at %s by T%d races %s at %s by T%d",
		r.Location,
		kindName(r.CurWrite), site(file, r.CurPos), r.Threads[1],
		kindName(r.PrevWrite), site(file, r.PrevPos), r.Threads[0])
}

// explainRace prints the provenance block for -explain-races.
func explainRace(w io.Writer, file string, r bigfoot.Race) {
	fmt.Fprintf(w, "  earlier: %-5s of %s at %s (line:col %s) by thread %d\n",
		kindName(r.PrevWrite), r.Location, site(file, r.PrevPos), r.PrevPos, r.Threads[0])
	fmt.Fprintf(w, "  later:   %-5s of %s at %s (line:col %s) by thread %d\n",
		kindName(r.CurWrite), r.Location, site(file, r.CurPos), r.CurPos, r.Threads[1])
}

// writeTrace renders the recorder as Chrome trace_event JSON, verifies
// the bytes are valid JSON, and writes them to path.
func writeTrace(path string, rec *bigfoot.Recorder) error {
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if !json.Valid(buf.Bytes()) {
		return fmt.Errorf("trace: emitted invalid JSON (%d bytes)", buf.Len())
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
