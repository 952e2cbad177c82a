package stats

import "math"

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
