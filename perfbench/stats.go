package main

import (
	"math"
	"sort"
)

// tailLadder holds the percentiles the tail rule picks from, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie strictly above a percentile for
// it to be reported: fewer and the value is set by a handful of outliers.
const minBeyond = 10

// tailPercentile reports the highest percentile in tailLadder that has at
// least minBeyond of n samples beyond it; when even the median has not
// (n < 20) it falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// beyond counts the samples of n sorted values that lie strictly above
// the nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p) - 1
}

// rank is the 0-based nearest-rank index of the p-th percentile among n
// sorted values.
func rank(n int, p float64) int {
	// The epsilon keeps p = 99.9 of n = 10000 at rank 9989, not 9990:
	// 99.9 has no exact binary form.
	r := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	return min(max(r, 0), n-1)
}

// percentile returns the nearest-rank p-th percentile of xs (NaN when xs
// is empty). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(len(s), p)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sorted(xs []float64) []float64 {
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
