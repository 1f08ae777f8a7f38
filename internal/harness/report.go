package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"bigfoot/internal/engine"
)

// This file renders the evaluation artifacts in the layout of the
// paper's Figure 2, Figure 8, Table 1, and Table 2.  Every renderer is
// a pure view over a Report: the same struct WriteJSON serializes, so
// the text tables and the JSON report can never disagree.  The
// package-level functions are thin adapters for callers holding a bare
// result slice.

func collect(rs []*ProgramResult, f func(*ProgramResult) float64) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, f(r))
	}
	return out
}

// Figure2 renders the summary comparison of the five detectors: the
// design-feature matrix plus the measured mean run-time overhead
// (geometric mean of per-program overhead multipliers).
func (rep *Report) Figure2() string {
	rs := rep.Programs
	var b strings.Builder
	b.WriteString("Figure 2: Comparison to prior precise dynamic race detectors\n")
	b.WriteString("=============================================================\n")
	fmt.Fprintf(&b, "%-10s %-28s %-14s %-26s %s\n",
		"Detector", "Check Motion+Coalescing", "Red. Check", "Metadata Compression", "Run-Time")
	fmt.Fprintf(&b, "%-10s %-13s %-14s %-14s %-12s %-13s %s\n",
		"", "objects", "arrays", "Elimination", "objects", "arrays", "Overhead")
	rows := []struct{ name, mo, ma, rce, co, ca string }{
		{"FT", "no", "no", "no", "no", "no"},
		{"RC", "no", "no", "static", "static proxy", "no"},
		{"SS", "no", "dynamic", "no", "no", "dynamic"},
		{"SC", "no", "dynamic", "static", "static proxy", "dynamic"},
		{"BF", "static", "static+dynamic", "static, better", "static proxy", "dynamic"},
	}
	for _, row := range rows {
		ov := GeoMean(collect(rs, func(r *ProgramResult) float64 { return r.Detectors[row.name].Overhead }))
		fmt.Fprintf(&b, "%-10s %-13s %-14s %-14s %-12s %-13s %.1fx\n",
			row.name, row.mo, row.ma, row.rce, row.co, row.ca, ov)
	}
	b.WriteString("\n(paper, JVM testbed: FT 7.3x, RC 6.0x, SS 6.0x, SC 5.1x, BF 2.5x)\n")
	return b.String()
}

// Figure8 renders the three panels of Figure 8: per-program check ratio
// for FastTrack and BigFoot (split into array vs field checks), and
// BigFoot's overhead relative to FastTrack.
func (rep *Report) Figure8() string {
	rs := rep.Programs
	var b strings.Builder
	b.WriteString("Figure 8: Check Ratio (FT, BF) and BF/FT run-time overhead\n")
	b.WriteString("===========================================================\n")
	fmt.Fprintf(&b, "%-11s | %-22s | %-22s | %s\n",
		"program", "FT ratio (arr+fld)", "BF ratio (arr+fld)", "BF/FT overhead")
	var ftRatios, bfRatios, rel []float64
	for _, r := range rs {
		ft := r.Detectors["FT"]
		bf := r.Detectors["BF"]
		ftArr := ratio(r.FTArrayChecks, r.Accesses)
		ftFld := ratio(r.FTFieldChecks, r.Accesses)
		bfArr := ratio(r.BFArrayChecks, r.Accesses)
		bfFld := ratio(r.BFFieldChecks, r.Accesses)
		relOv := relOverhead(bf.Overhead, ft.Overhead)
		fmt.Fprintf(&b, "%-11s | %5.2f = %5.2fa + %5.2ff | %5.2f = %5.2fa + %5.2ff | %5.2f %s\n",
			r.Name, ft.CheckRatio, ftArr, ftFld, bf.CheckRatio, bfArr, bfFld,
			relOv, bar(relOv, 20))
		ftRatios = append(ftRatios, ft.CheckRatio)
		bfRatios = append(bfRatios, bf.CheckRatio)
		rel = append(rel, relOv)
	}
	fmt.Fprintf(&b, "%-11s | %5.2f%18s | %5.2f%18s | %5.2f\n",
		"MEAN", Mean(ftRatios), "", Mean(bfRatios), "", GeoMean(rel))
	b.WriteString("\n(paper: FT ratio 1.0 by construction, BF mean ratio 0.43, BF/FT overhead geomean 0.39)\n")
	return b.String()
}

// relOverhead reports how a detector's overhead compares to FastTrack's
// on the same program.  When FastTrack's own overhead is negligible
// (below GeoMeanFloor) the ratio is meaningless, so it reports 1 (no
// change) rather than a huge or negative quotient.
func relOverhead(bf, ft float64) float64 {
	if ft < GeoMeanFloor {
		return 1
	}
	if bf < 0 {
		bf = 0
	}
	return bf / ft
}

func bar(x float64, width int) string {
	n := int(x * float64(width))
	if n > width {
		n = width
	}
	if n < 0 {
		n = 0
	}
	return strings.Repeat("#", n)
}

// Table1 renders checker performance: static-analysis cost, check
// ratio, base time, and per-detector overheads with the ratio-to-FT
// columns.
func (rep *Report) Table1() string {
	rs := rep.Programs
	var b strings.Builder
	b.WriteString("Table 1: Checker performance\n")
	b.WriteString("============================\n")
	fmt.Fprintf(&b, "%-11s %7s %8s %6s %9s | %7s %7s %7s %7s %7s | %6s %6s %6s %6s\n",
		"program", "bodies", "static", "ratio", "base",
		"FT", "RC", "SS", "SC", "BF",
		"RC/FT", "SS/FT", "SC/FT", "BF/FT")
	type agg struct{ ft, rc, ss, sc, bf []float64 }
	var a agg
	var ratios, staticTimes []float64
	for _, r := range rs {
		d := func(n string) *DetectorResult { return r.Detectors[n] }
		fmt.Fprintf(&b, "%-11s %7d %7.3fs %6.3f %8.0fms | %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx | %6.2f %6.2f %6.2f %6.2f\n",
			r.Name, r.MethodsAnalyzed, r.StaticTime.Seconds(),
			d("BF").CheckRatio, float64(r.BaseTime)/float64(time.Millisecond),
			d("FT").Overhead, d("RC").Overhead, d("SS").Overhead, d("SC").Overhead, d("BF").Overhead,
			relOverhead(d("RC").Overhead, d("FT").Overhead),
			relOverhead(d("SS").Overhead, d("FT").Overhead),
			relOverhead(d("SC").Overhead, d("FT").Overhead),
			relOverhead(d("BF").Overhead, d("FT").Overhead))
		a.ft = append(a.ft, d("FT").Overhead)
		a.rc = append(a.rc, d("RC").Overhead)
		a.ss = append(a.ss, d("SS").Overhead)
		a.sc = append(a.sc, d("SC").Overhead)
		a.bf = append(a.bf, d("BF").Overhead)
		ratios = append(ratios, d("BF").CheckRatio)
		staticTimes = append(staticTimes, r.StaticTime.Seconds()/float64(max(1, r.MethodsAnalyzed)))
	}
	fmt.Fprintf(&b, "%-11s %7s %7.3fs %6.3f %10s | %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx | %6.2f %6.2f %6.2f %6.2f\n",
		"MEAN", "", Mean(staticTimes), Mean(ratios), "",
		GeoMean(a.ft), GeoMean(a.rc), GeoMean(a.ss), GeoMean(a.sc), GeoMean(a.bf),
		GeoMean(a.rc)/GeoMean(a.ft), GeoMean(a.ss)/GeoMean(a.ft),
		GeoMean(a.sc)/GeoMean(a.ft), GeoMean(a.bf)/GeoMean(a.ft))
	b.WriteString("\nstatic column: BigFoot analysis seconds (MEAN row: per body analyzed)\n")
	b.WriteString("(paper means: check ratio 0.43; overheads FT 7.26x RC 6.00x SS 6.03x SC 5.05x BF 2.47x;\n")
	b.WriteString(" relative RC 0.83 SS 0.83 SC 0.70 BF 0.39; static 0.16 s/method)\n")
	return b.String()
}

// Table2 renders checker space overhead: base data words, FT shadow
// multiple, and each detector's shadow space relative to FastTrack.
func (rep *Report) Table2() string {
	rs := rep.Programs
	var b strings.Builder
	b.WriteString("Table 2: Checker space overhead\n")
	b.WriteString("===============================\n")
	fmt.Fprintf(&b, "%-11s %10s %8s | %6s %6s %6s %6s\n",
		"program", "base(KW)", "FT/base", "RC/FT", "SS/FT", "SC/FT", "BF/FT")
	type agg struct{ ft, rc, ss, sc, bf []float64 }
	var a agg
	for _, r := range rs {
		ft := r.Detectors["FT"].SpaceOverX
		rel := func(n string) float64 {
			if ft < 1e-9 {
				return 1
			}
			return r.Detectors[n].SpaceOverX / ft
		}
		fmt.Fprintf(&b, "%-11s %10.1f %7.2fx | %6.2f %6.2f %6.2f %6.2f\n",
			r.Name, float64(r.BaseWords)/1024, ft,
			rel("RC"), rel("SS"), rel("SC"), rel("BF"))
		a.ft = append(a.ft, ft)
		a.rc = append(a.rc, rel("RC"))
		a.ss = append(a.ss, rel("SS"))
		a.sc = append(a.sc, rel("SC"))
		a.bf = append(a.bf, rel("BF"))
	}
	fmt.Fprintf(&b, "%-11s %10s %7.2fx | %6.2f %6.2f %6.2f %6.2f\n",
		"GEOMEAN", "", GeoMean(a.ft),
		GeoMean(a.rc), GeoMean(a.ss), GeoMean(a.sc), GeoMean(a.bf))
	b.WriteString("\n(paper geomeans: FT/base 6.84x; RC 0.99, SS 0.73, SC 0.74, BF 0.72 relative to FT)\n")
	return b.String()
}

// Table1Wall renders the supplementary wall-clock overheads (noisy on
// an interpreter substrate; the modeled overheads of Table 1 are the
// primary comparison — see the cost-model comment in harness.go).
func (rep *Report) Table1Wall() string {
	rs := rep.Programs
	var b strings.Builder
	b.WriteString("Table 1 (supplement): measured wall-clock overheads\n")
	b.WriteString("====================================================\n")
	fmt.Fprintf(&b, "%-11s %9s | %7s %7s %7s %7s %7s | %6s\n",
		"program", "base", "FT", "RC", "SS", "SC", "BF", "BF/FT")
	type agg struct{ ft, rc, ss, sc, bf []float64 }
	var a agg
	for _, r := range rs {
		d := func(n string) *DetectorResult { return r.Detectors[n] }
		fmt.Fprintf(&b, "%-11s %8.0fms | %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx | %6.2f\n",
			r.Name, float64(r.BaseTime)/float64(time.Millisecond),
			d("FT").WallOverhead, d("RC").WallOverhead, d("SS").WallOverhead,
			d("SC").WallOverhead, d("BF").WallOverhead,
			relOverhead(d("BF").WallOverhead, d("FT").WallOverhead))
		a.ft = append(a.ft, d("FT").WallOverhead)
		a.rc = append(a.rc, d("RC").WallOverhead)
		a.ss = append(a.ss, d("SS").WallOverhead)
		a.sc = append(a.sc, d("SC").WallOverhead)
		a.bf = append(a.bf, d("BF").WallOverhead)
	}
	fmt.Fprintf(&b, "%-11s %10s | %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx | %6.2f\n",
		"MEAN", "",
		GeoMean(a.ft), GeoMean(a.rc), GeoMean(a.ss), GeoMean(a.sc), GeoMean(a.bf),
		GeoMean(a.bf)/GeoMean(a.ft))
	return b.String()
}

// Summary renders a compact all-in-one report.
func (rep *Report) Summary() string {
	var b strings.Builder
	b.WriteString(rep.Figure2())
	b.WriteString("\n")
	b.WriteString(rep.Figure8())
	b.WriteString("\n")
	b.WriteString(rep.Table1())
	b.WriteString("\n")
	b.WriteString(rep.Table1Wall())
	b.WriteString("\n")
	b.WriteString(rep.Table2())
	return b.String()
}

// Signature renders every deterministic field of the result set —
// counters, modeled overheads, check ratios and splits, shadow sizes,
// races, array modes, static placement counts — and omits wall-clock
// timings.  Two harness runs with the same options must produce
// byte-identical signatures regardless of worker count; the concurrency
// tests pin exactly that.
func (rep *Report) Signature() string {
	var b strings.Builder
	for _, r := range rep.Programs {
		fmt.Fprintf(&b, "%s/%s bodies=%d placed=%d base[steps=%d acc=%d words=%d] split[ft=%d+%d bf=%d+%d]\n",
			r.Suite, r.Name, r.MethodsAnalyzed, r.ChecksInserted,
			r.BaseSteps, r.Accesses, r.BaseWords,
			r.FTFieldChecks, r.FTArrayChecks, r.BFFieldChecks, r.BFArrayChecks)
		for _, name := range engine.VariantNames {
			d := r.Detectors[name]
			if d == nil {
				fmt.Fprintf(&b, "  %s MISSING\n", name)
				continue
			}
			modes := make([]string, 0, len(d.ArrayModes))
			for k := range d.ArrayModes {
				modes = append(modes, k)
			}
			sort.Strings(modes)
			fmt.Fprintf(&b, "  %s ov=%.9f ratio=%.9f checks=%d shadow=%d fp=%d sync=%d peak=%d space=%.9f races=%d",
				name, d.Overhead, d.CheckRatio, d.Checks, d.ShadowOps,
				d.FootprintOps, d.SyncOps, d.PeakWords, d.SpaceOverX, d.Races)
			for _, k := range modes {
				fmt.Fprintf(&b, " %s=%d", k, d.ArrayModes[k])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Adapters for callers holding a bare result slice (benchmarks, older
// tests).  Each wraps the slice in an unversioned Report and delegates
// to the corresponding view.

// Figure2 renders Figure 2 for a bare result slice.
func Figure2(rs []*ProgramResult) string { return (&Report{Programs: rs}).Figure2() }

// Figure8 renders Figure 8 for a bare result slice.
func Figure8(rs []*ProgramResult) string { return (&Report{Programs: rs}).Figure8() }

// Table1 renders Table 1 for a bare result slice.
func Table1(rs []*ProgramResult) string { return (&Report{Programs: rs}).Table1() }

// Table2 renders Table 2 for a bare result slice.
func Table2(rs []*ProgramResult) string { return (&Report{Programs: rs}).Table2() }

// Signature renders the deterministic signature for a bare result slice.
func Signature(rs []*ProgramResult) string { return (&Report{Programs: rs}).Signature() }
