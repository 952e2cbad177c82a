package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the reporting rule for tails: a percentile is reported
// only when at least this many samples lie beyond it, so one slow
// outlier cannot be the whole tail.
const minBeyond = 10

// sortedCopy returns xs sorted ascending without modifying xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the middle two for even
// counts); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mixMedian returns each kind's median weighted by the kind's share of
// all samples. When a mix of operation kinds gives latencies in
// separate modes, the median of the pooled samples falls in a gap
// between two modes and jumps with any small shift of either; this
// moves with every kind's typical latency in proportion to its share.
func mixMedian(byKind [][]float64) float64 {
	var n int
	var sum float64
	for _, xs := range byKind {
		n += len(xs)
		sum += float64(len(xs)) * median(xs)
	}
	return ratio(sum, float64(n))
}

// percentile returns the nearest-rank p-th percentile of xs, refusing a
// tail the sample count cannot support: fewer than minBeyond samples
// ranked above it is an error.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	rank := max(rankOf(p, n), 1)
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it (need %d)", p, n, n-rank, minBeyond)
	}
	return sortedCopy(xs)[rank-1], nil
}

// rankOf returns the nearest rank of the p-th percentile of n samples,
// ceil(p*n/100), tolerant of p's binary rounding (99.9 is inexact).
func rankOf(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentiles are the tails considered, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// highestTail returns the highest of tailPercentiles that n samples
// support under the minBeyond rule, and false when none is.
func highestTail(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// mean returns the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
