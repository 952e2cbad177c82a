package stats

import (
	"fmt"
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

// Variance returns the unbiased (n-1 denominator) sample variance of xs.
// It panics when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		panic("stats: Variance needs at least 2 samples")
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// Quantile returns the p-quantile of xs using linear interpolation
// between order statistics (type-7, the R default). It panics on an
// empty slice or p outside [0, 1].
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: Quantile: p must be in [0,1], got %v", p))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}

// Median returns the median of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// GeometricMean returns the geometric mean of xs. All values must be
// positive.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: GeometricMean of empty slice")
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeometricMean requires positive values, got %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
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
