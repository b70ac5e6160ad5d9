package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs, 0 when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-th quantile of xs (0 <= q <= 1) by linear
// interpolation between order statistics; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durQuantile is quantile over durations, in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// ratio returns num/den, 0 when den is 0 (an idle layer).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
