package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	closeTo(t, Mean(xs), 5, 1e-12, "Mean")
	closeTo(t, Variance(xs), 32.0/7.0, 1e-12, "Variance")
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	closeTo(t, Quantile(xs, 0), 1, 0, "q0")
	closeTo(t, Quantile(xs, 1), 4, 0, "q1")
	closeTo(t, Quantile(xs, 0.5), 2.5, 1e-12, "q0.5")
	closeTo(t, Median([]float64{5}), 5, 0, "median singleton")
	closeTo(t, Median([]float64{3, 1, 2}), 2, 0, "median odd")
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestGeometricMean(t *testing.T) {
	closeTo(t, GeometricMean([]float64{1, 4}), 2, 1e-12, "gm{1,4}")
	closeTo(t, GeometricMean([]float64{2, 2, 2}), 2, 1e-12, "gm{2,2,2}")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for non-positive value")
			}
		}()
		GeometricMean([]float64{1, 0})
	}()
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
		q := Quantile(xs, p)
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
