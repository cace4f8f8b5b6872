package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedQuantile splits xs, in time order, into consecutive windows of
// at least minWindow samples and returns the median of the windows'
// q-quantiles: a stall that hits one window moves it by one window's
// worth, not by the whole tail.
func windowedQuantile(xs []float64, q float64, minWindow int) float64 {
	n := max(1, len(xs)/minWindow)
	per := make([]float64, n)
	for w := range per {
		per[w] = quantile(xs[w*len(xs)/n:(w+1)*len(xs)/n], q)
	}
	return median(per)
}

// ms, us and secs convert durations to float units.
func ms(ds []time.Duration) []float64   { return scale(ds, time.Millisecond) }
func us(ds []time.Duration) []float64   { return scale(ds, time.Microsecond) }
func secs(ds []time.Duration) []float64 { return scale(ds, time.Second) }

func scale(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
