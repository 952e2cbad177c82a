package stats

import (
	"math"
	"testing"
)

func TestMinimizeQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	r := Minimize(f, []float64{0, 0}, NelderMeadOptions{})
	closeTo(t, r.X[0], 3, 1e-4, "x0")
	closeTo(t, r.X[1], -1, 1e-4, "x1")
	closeTo(t, r.F, 0, 1e-7, "f")
	if !r.Converged {
		t.Error("expected convergence on a smooth quadratic")
	}
}

func TestMinimizeRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	r := Minimize(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 20000})
	closeTo(t, r.X[0], 1, 1e-3, "rosenbrock x0")
	closeTo(t, r.X[1], 1, 1e-3, "rosenbrock x1")
}

func TestMinimizeHandlesInfeasibleRegions(t *testing.T) {
	// A log-barrier objective: infinite for x <= 0, minimized at x = 2.
	f := func(x []float64) float64 {
		if x[0] <= 0 {
			return math.Inf(1)
		}
		return x[0] - 2*math.Log(x[0])
	}
	r := Minimize(f, []float64{5}, NelderMeadOptions{})
	closeTo(t, r.X[0], 2, 1e-4, "barrier minimum")
}

func TestMinimizeTreatsNaNAsWorst(t *testing.T) {
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 1) * (x[0] - 1)
	}
	r := Minimize(f, []float64{3}, NelderMeadOptions{})
	closeTo(t, r.X[0], 1, 1e-4, "NaN-guarded minimum")
}

func TestMinimizeHighDimensional(t *testing.T) {
	// Sum of shifted squares in 6 dimensions.
	f := func(x []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - float64(i)
			s += d * d
		}
		return s
	}
	r := Minimize(f, make([]float64, 6), NelderMeadOptions{MaxIter: 50000})
	for i, v := range r.X {
		closeTo(t, v, float64(i), 1e-3, "dim minimum")
	}
}

func TestMinimizeReportsEvals(t *testing.T) {
	f := func(x []float64) float64 { return x[0] * x[0] }
	r := Minimize(f, []float64{1}, NelderMeadOptions{})
	if r.Evals <= 0 {
		t.Error("expected positive evaluation count")
	}
	if r.Iters <= 0 {
		t.Error("expected positive iteration count")
	}
}
