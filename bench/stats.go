package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values
// (Python's statistics.median).  0 for no values, like every helper
// here: a phase whose ops all failed must still print a JSON result,
// and encoding/json refuses NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs.
// Q1 and Q3 use the exclusive method of Python's
// statistics.quantiles(xs, n=4), so spreads computed here match those
// computed from the same values by that function.  With one value all
// three are that value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	med = median(xs)
	if len(xs) < 2 {
		return med, med, med
	}
	s := sorted(xs)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), med, cut(3)
}

// hdQuantile is the Harrell–Davis estimate of the p-quantile of xs: the
// mean of all order statistics, weighted by a Beta(p(n+1), (1-p)(n+1))
// distribution over the ranks.  Over a few dozen ops of distinct sizes
// it moves far less from run to run than the one order statistic a
// nearest-rank percentile picks.  0 for no values.
func hdQuantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := float64(len(s))
	a, b := p*(n+1), (1-p)*(n+1)
	est, below := 0.0, 0.0
	for i, x := range s {
		upTo := regIncBeta(a, b, float64(i+1)/n)
		est += (upTo - below) * x
		below = upTo
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// from its continued fraction (Numerical Recipes, §6.4).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(a, b, x) / a
	}
	return 1 - front*betaFraction(b, a, 1-x)/b
}

// betaFraction evaluates regIncBeta's continued fraction by Lentz's
// method.
func betaFraction(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		var step float64
		for _, coef := range [2]float64{even, odd} {
			d = 1 / clamp(1+coef*d)
			c = clamp(1 + coef/c)
			step = d * c
			h *= step
		}
		if math.Abs(step-1) < 3e-14 {
			break
		}
	}
	return h
}

// rankOf is the 0-based index of the nearest-rank p-quantile among n
// sorted samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n))) - 1
	return min(max(r, 0), n-1)
}

// beyond counts the samples strictly above the nearest-rank p-quantile's
// rank.  A tail percentile is reported only as trustworthy when at least
// minBeyond samples lie beyond it.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankOf(n, p)
}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const minBeyond = 10

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time the process has used so far.  The bench runs
// on one P (see realMain), so this clock advances only while the
// process's one running thread runs: unlike wall time, it does not count
// the time the hypervisor gives the vCPU to other tenants.  The kernel
// brings the calling thread's share up to date on every call, so it is
// exact to the nanosecond for the caller.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTimeOf returns the CPU time f used.
func cpuTimeOf(f func()) time.Duration {
	start := cpuTime()
	f()
	return cpuTime() - start
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
