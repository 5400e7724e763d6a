package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read from fewer samples is noise.
const minBeyond = 10

// tailCandidates are the percentiles the tail rule considers, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie beyond it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	// The epsilon keeps float rounding (0.999 x 10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// tailPercentile applies the tail rule: it returns the highest candidate
// percentile with at least minBeyond samples beyond it, its value, and
// that count. ok is false when even the median has too few.
func tailPercentile(xs []float64) (p, v float64, beyond int, ok bool) {
	for _, c := range tailCandidates {
		if v, b := percentile(xs, c); b >= minBeyond {
			return c, v, b, true
		}
	}
	return 0, math.NaN(), 0, false
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
