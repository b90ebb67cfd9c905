package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 || float64(lo) == pos {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, with that percentile: the value of rank n−10 of n. With
// ten samples or fewer there is no such percentile and it reports the
// maximum as percentile 100.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}
