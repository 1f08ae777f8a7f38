package main

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"text/template"
	"time"
)

// The host this benchmark was written on is a 2-vCPU virtual machine on
// a shared server.  Two things there make a fixed piece of work take
// longer, and both come and go over minutes with the other tenants:
//
//   - the hypervisor gives our vCPUs to other tenants (steal time), at
//     times half of all time for minutes on end;
//   - when the vCPU does run, it runs slower, by up to half, as other
//     tenants compete for the core and its caches.
//
// So every timing the bench reports is CPU time (cpuTime), which leaves
// out the first, scaled by a probe, which takes out the second.  The
// probe is a fixed piece of work, owned by the bench and untouched by
// the code it measures, that the bench times between ops all through a
// run.  A timing is reported as it would read on a host on which the
// probe takes probeRefMS:
//
//	reported = CPU time × probeRefMS / (median probe time around it)
//
// An op's latency and a set-up time are scaled by the probe samples
// taken within probeWindow of them, so a stretch of slow host scales
// only the ops that ran in it.  The per-layer metrics of a traced run
// are scaled by the run's median probe time.  Each result stores that
// median (probe_ms), so raw timings can be recovered.

// probeRefMS is the scale of every reported time: a round number near
// the probe's CPU time on a 2-vCPU Xeon VM at 2.0 GHz on a quiet day
// (0.45–0.6 ms), so reported times read close to that host's own.
const probeRefMS = 0.5

// probeWindow is how far, each way, from a measurement the probe
// samples that scale it may lie.
const probeWindow = 2 * time.Second

// probe is four fixed kernels, each doing some of what the measured
// code does: dependent loads over a working set the size of the L2
// cache with map lookups and updates (chase); branchy integer
// arithmetic in registers (spin); text/template running a loop over
// records, an interpreter over reflection (render); and go/parser
// building a syntax tree, allocation-heavy like StaticBF (parse).  A
// sample is the geometric mean of their CPU times, so no one kind of
// contention (for the core, its caches or the allocator) decides it.
// Contention slows the kernels, and the workloads, by different
// amounts, and which kernel tracks a workload best changed from one
// stretch of hours to the next; the mean of all four was among the
// best in each stretch measured.
type probe struct {
	next []uint32 // one random cycle through every index
	m    map[uint32]uint32
	at   uint32
	tmpl *template.Template
	rows []probeRow
	src  string
	sink uint64

	when []time.Time // when each sample was taken, in order
	took []float64   // each sample's geometric-mean CPU time, ms
}

type probeRow struct {
	Name, URL string
	Tags      []string
	N         int
}

const (
	probeWords = 1 << 19 // 2 MiB of next
	probeSteps = 10000
	spinSteps  = 200000
)

func newProbe() *probe {
	p := &probe{next: make([]uint32, probeWords), m: make(map[uint32]uint32, 4096)}
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	// Sattolo's shuffle leaves one cycle through every index.
	rng := rand.New(rand.NewSource(1))
	for i := len(p.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	for i := uint32(0); i < 4096; i++ {
		p.m[i*2654435761] = i
	}
	p.tmpl = template.Must(template.New("rows").Parse(
		`{{range $i, $r := .}}{{if $r.Tags}}{{range $r.Tags}}[{{.}}]{{end}}{{else}}<a href="{{$r.URL}}">{{printf "%q" $r.Name}}</a>{{end}} {{$r.N}}
{{end}}`))
	for i := 0; i < 60; i++ {
		r := probeRow{Name: fmt.Sprintf("row-%d", i), URL: fmt.Sprintf("/r/%d?q=%d", i, 7*i), N: 31 * i}
		if i%2 == 0 {
			r.Tags = []string{"a", "bb", strconv.Itoa(i)}
		}
		p.rows = append(p.rows, r)
	}
	var b strings.Builder
	b.WriteString("package p\n\nimport \"fmt\"\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, `
type T%[1]d struct {
	a, b int
	s    []string
	m    map[string]int
}

func (t *T%[1]d) F(x int) (int, error) {
	for i := 0; i < x; i++ {
		if t.a > i && t.b < x || len(t.s) == 0 {
			t.m[fmt.Sprint(i)] += i * %[1]d
		} else if i%%3 == 0 {
			t.s = append(t.s, "x")
		} else {
			return 0, fmt.Errorf("bad %%d", i)
		}
	}
	return t.a + t.b, nil
}
`, i)
	}
	p.src = b.String()
	return p
}

// sample runs the four kernels once and records the geometric mean of
// their CPU times.
func (p *probe) sample() {
	at := time.Now()
	product := 1.0
	for _, kernel := range []func(){p.chase, p.spin, p.render, p.parse} {
		product *= ms(cpuTimeOf(kernel))
	}
	p.when = append(p.when, at)
	p.took = append(p.took, math.Pow(product, 0.25))
}

func (p *probe) chase() {
	at, acc := p.at, uint64(0)
	for i := 0; i < probeSteps; i++ {
		at = p.next[at]
		k := (at & 4095) * 2654435761
		if v, ok := p.m[k]; ok && v&1 == 0 {
			p.m[k] = v + 2
			acc += uint64(v)
		} else {
			acc ^= uint64(at) * 0x9e3779b97f4a7c15
		}
	}
	p.at, p.sink = at, p.sink+acc
}

func (p *probe) spin() {
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < spinSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			acc += x >> 3
		} else {
			acc ^= x
		}
	}
	p.sink += acc
}

// render and parse work on fixed inputs the bench built itself, so an
// error can only be a bug here.
func (p *probe) render() {
	var b bytes.Buffer
	if err := p.tmpl.Execute(&b, p.rows); err != nil {
		panic(err)
	}
	p.sink += uint64(b.Len())
}

func (p *probe) parse() {
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", p.src, 0)
	if err != nil {
		panic(err)
	}
	p.sink += uint64(len(f.Decls))
}

// median is the run's median probe time, ms (0 before any sample).
func (p *probe) median() float64 { return median(p.took) }

// scale returns the factor that takes a time measured during the run to
// the reference host: probeRefMS over the median probe time.
func (p *probe) scale() float64 { return ratio(probeRefMS, p.median()) }

// scaleAt is scale for a measurement made at t, from the samples within
// probeWindow of t, or the nearest sample when none is.
func (p *probe) scaleAt(t time.Time) float64 {
	lo := sort.Search(len(p.when), func(i int) bool { return !p.when[i].Before(t.Add(-probeWindow)) })
	hi := sort.Search(len(p.when), func(i int) bool { return p.when[i].After(t.Add(probeWindow)) })
	if lo == hi { // no sample in the window: take the nearest
		if lo == len(p.when) || (lo > 0 && t.Sub(p.when[lo-1]) < p.when[lo].Sub(t)) {
			lo--
		}
		hi = lo + 1
	}
	if lo < 0 {
		return 1 // no sample at all
	}
	return ratio(probeRefMS, median(p.took[lo:hi]))
}

// scaledMS is t's duration scaled to the reference host, ms.
func (p *probe) scaledMS(t timing) float64 { return ms(t.d) * p.scaleAt(t.at) }

// scaledMedianS is the median of ts scaled to the reference host, s.
func (p *probe) scaledMedianS(ts []timing) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = p.scaledMS(t) / 1000
	}
	return median(xs)
}

// timing is one measurement: when it started, by the wall clock, which
// places it among the probe samples, and the CPU time it took.
type timing struct {
	at time.Time
	d  time.Duration
}

// opTimes holds, per op, its timing in every pass of a phase.
type opTimes [][]timing

func (o opTimes) add(k int, t timing) { o[k] = append(o[k], t) }

// medians returns, for each op measured at least once, the median over
// its passes of its scaled latency (ms).  Every workload repeats the
// same ops in passes spread over its measured phase, so a burst of host
// load that slows one pass does not move an op's median.
func (o opTimes) medians(p *probe) []float64 {
	var out []float64
	for _, ts := range o {
		if len(ts) == 0 {
			continue
		}
		out = append(out, p.scaledMedianS(ts)*1000)
	}
	return out
}
