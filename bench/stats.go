package main

import (
	"sort"
	"time"
)

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample (0 for an empty one).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMin is how many samples must lie beyond a reported percentile.
const tailMin = 10

// tail returns the highest percentile of the sample that still has at
// least tailMin samples beyond it, and which percentile that is. A
// sample too small to support a percentile above its median reports
// the median: the tail is then simply not resolved by the run.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 2*tailMin+2 {
		return median(xs), 50
	}
	s := sorted(xs)
	i := n - tailMin - 1
	return s[i], 100 * float64(i+1) / float64(n)
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4), the
// rule the benchmark contract judges run-to-run spread by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // after the clamp, as Python does: it extrapolates at the ends
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durs(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}
