package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It panics on an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty slice")
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Correlation returns the Pearson correlation coefficient between xs
// and ys. It panics when the slices differ in length or have fewer than
// two elements.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Correlation: slices must have equal length")
	}
	if len(xs) < 2 {
		panic("stats: Correlation needs at least 2 samples")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// SpearmanCorrelation returns the Spearman rank correlation between xs
// and ys: the Pearson correlation of their ranks, with ties assigned
// average ranks.
func SpearmanCorrelation(xs, ys []float64) float64 {
	return Correlation(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based ranks of xs, assigning tied values their
// average rank.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group spanning sorted positions [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
