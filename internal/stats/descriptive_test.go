package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// quantile returns the p-quantile of xs using linear interpolation
// between order statistics (type-7, the R default). It panics on an
// empty slice or p outside [0, 1].
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty slice")
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: quantile: p must be in [0,1], got %v", p))
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

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	closeTo(t, Mean(xs), 5, 1e-12, "Mean")
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	closeTo(t, quantile(xs, 0), 1, 0, "q0")
	closeTo(t, quantile(xs, 1), 4, 0, "q1")
	closeTo(t, quantile(xs, 0.5), 2.5, 1e-12, "q0.5")
	closeTo(t, quantile([]float64{5}, 0.5), 5, 0, "median singleton")
	closeTo(t, quantile([]float64{3, 1, 2}, 0.5), 2, 0, "median odd")
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestCorrelationKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	closeTo(t, Correlation(xs, ys), 1, 1e-12, "perfect positive")
	zs := []float64{10, 8, 6, 4, 2}
	closeTo(t, Correlation(xs, zs), -1, 1e-12, "perfect negative")
	closeTo(t, Correlation(xs, []float64{1, 1, 1, 1, 1}), 0, 0, "constant → 0")
}

func TestSpearmanMonotoneTransformInvariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // monotone but nonlinear
	}
	closeTo(t, SpearmanCorrelation(xs, ys), 1, 1e-12, "spearman monotone")
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		closeTo(t, r[i], want[i], 1e-12, "rank")
	}
}

func TestQuantileBoundsProperty(t *testing.T) {
	f := func(raw []float64, rawP float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := math.Abs(math.Mod(rawP, 1))
		q := quantile(xs, p)
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return q >= lo && q <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanLinearityProperty(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		if len(raw) == 0 || math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 || math.Abs(shift) > 1e12 {
			return true
		}
		shifted := make([]float64, len(xs))
		for i, v := range xs {
			shifted[i] = v + shift
		}
		return math.Abs(Mean(shifted)-(Mean(xs)+shift)) < 1e-6*(1+math.Abs(shift))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
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
