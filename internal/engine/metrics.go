package engine

import (
	"bigfoot/internal/analysis"
	"bigfoot/internal/metrics"
)

// engineMetrics is the engine's instrument set.  Every instrument is
// created up front in New — against the caller's registry, or detached
// when Options.Metrics is nil — so the run path never nil-checks.
//
// Determinism contract: every counter here is folded in from a
// completed Outcome after the run returns (observeRun), or from a
// completed BF placement (observeAnalysis), never sampled inside hook
// callbacks or the analysis passes.  The detector check hot path stays
// 0 allocs and untouched, and harness signatures are byte-identical
// whether or not a registry is attached.
type engineMetrics struct {
	buildSeconds *metrics.HistogramVec // variant (incl. "base")
	runSeconds   *metrics.HistogramVec // variant (incl. "base")
	runs         *metrics.CounterVec   // variant, outcome

	steps      *metrics.CounterVec // variant
	accesses   *metrics.CounterVec // variant
	checkItems *metrics.CounterVec // variant
	syncOps    *metrics.CounterVec // variant
	shadowOps  *metrics.CounterVec // variant
	footOps    *metrics.CounterVec // variant
	races      *metrics.CounterVec // variant
	fastHits   *metrics.CounterVec // variant, path

	analysisBlocks  *metrics.CounterVec // pass
	analysisQueries *metrics.Counter
}

func newEngineMetrics(r *metrics.Registry) engineMetrics {
	return engineMetrics{
		buildSeconds: r.HistogramVec("bigfoot_engine_build_seconds",
			"wall-clock compile time per variant, cache misses only; variants sharing one compilation observe the same duration",
			nil, "variant"),
		runSeconds: r.HistogramVec("bigfoot_engine_run_seconds",
			"wall-clock detected-execution time per variant",
			nil, "variant"),
		runs: r.CounterVec("bigfoot_engine_runs_total",
			"completed executions by variant and outcome (ok, race, budget, fault)",
			"variant", "outcome"),
		steps: r.CounterVec("bigfoot_engine_steps_total",
			"interpreted steps, folded in at run end", "variant"),
		accesses: r.CounterVec("bigfoot_engine_accesses_total",
			"heap accesses (reads + writes), folded in at run end", "variant"),
		checkItems: r.CounterVec("bigfoot_engine_check_items_total",
			"executed race-check items, folded in at run end", "variant"),
		syncOps: r.CounterVec("bigfoot_engine_sync_ops_total",
			"synchronization operations, folded in at run end", "variant"),
		shadowOps: r.CounterVec("bigfoot_engine_shadow_ops_total",
			"detector shadow-state operations, folded in at run end", "variant"),
		footOps: r.CounterVec("bigfoot_engine_footprint_ops_total",
			"detector footprint operations, folded in at run end", "variant"),
		races: r.CounterVec("bigfoot_engine_races_total",
			"distinct races reported, folded in at run end", "variant"),
		fastHits: r.CounterVec("bigfoot_engine_fastpath_hits_total",
			"detector fast-path hits and adaptive read-metadata transitions by path (same_epoch_read, same_epoch_write, owned_read, owned_write, lock_owner, read_promotion, read_demotion), folded in at run end",
			"variant", "path"),
		analysisBlocks: r.CounterVec("bigfoot_engine_analysis_blocks_total",
			"StaticBF block analyses by pass (1 history, 2 anticipation, 3 placement), folded in after each BF placement a build computes",
			"pass"),
		analysisQueries: r.Counter("bigfoot_engine_analysis_queries_total",
			"entailment queries StaticBF's solvers answered, folded in after each BF placement a build computes"),
	}
}

// analysisPasses labels the analysis passes in Work.Blocks order.
var analysisPasses = [3]string{"1", "2", "3"}

// observeAnalysis folds one BF placement's analysis work into the
// registry.  BuildAST calls it once per placement it computes, so a
// cache hit, which computes none, never re-observes.
func (e *Engine) observeAnalysis(w analysis.Work) {
	for i, n := range w.Blocks {
		e.m.analysisBlocks.With(analysisPasses[i]).Add(float64(n))
	}
	e.m.analysisQueries.Add(float64(w.Queries))
}

// outcomeClass classifies one finished run for the runs_total counter.
func outcomeClass(err error, races int) string {
	switch {
	case err == nil && races > 0:
		return "race"
	case err == nil:
		return "ok"
	case IsBudget(err):
		return "budget"
	default:
		return "fault"
	}
}

// observeRun folds one completed execution into the registry.  It runs
// after the interpreter and detector have both finished, so nothing
// here can perturb the deterministic event stream.
func (e *Engine) observeRun(variant string, out *Outcome, err error) {
	m := &e.m
	m.runSeconds.With(variant).ObserveDuration(out.Duration)
	m.runs.With(variant, outcomeClass(err, len(out.Races))).Inc()
	m.steps.With(variant).Add(float64(out.Counters.Steps))
	m.accesses.With(variant).Add(float64(out.Counters.Accesses()))
	m.checkItems.With(variant).Add(float64(out.Counters.CheckItems))
	m.syncOps.With(variant).Add(float64(out.Counters.SyncOps))
	m.shadowOps.With(variant).Add(float64(out.ShadowOps))
	m.footOps.With(variant).Add(float64(out.FootprintOps))
	m.races.With(variant).Add(float64(len(out.Races)))
	for _, fp := range []struct {
		path string
		n    uint64
	}{
		{"same_epoch_read", out.FastPaths.SameEpochReads},
		{"same_epoch_write", out.FastPaths.SameEpochWrites},
		{"owned_read", out.FastPaths.OwnedReads},
		{"owned_write", out.FastPaths.OwnedWrites},
		{"lock_owner", out.FastPaths.LockOwnerHits},
		{"read_promotion", out.FastPaths.ReadPromotions},
		{"read_demotion", out.FastPaths.ReadDemotions},
	} {
		if fp.n != 0 {
			m.fastHits.With(variant, fp.path).Add(float64(fp.n))
		}
	}
}
