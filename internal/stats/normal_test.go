package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func closeTo(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}

func TestNormalPDF(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	closeTo(t, n.PDF(0), 1/math.Sqrt(2*math.Pi), 1e-12, "stdnormal PDF(0)")
	closeTo(t, n.PDF(1), math.Exp(-0.5)/math.Sqrt(2*math.Pi), 1e-12, "stdnormal PDF(1)")

	n2 := Normal{Mu: 3, Sigma: 2}
	closeTo(t, n2.PDF(3), 1/(2*math.Sqrt(2*math.Pi)), 1e-12, "N(3,2) PDF(3)")
}

func TestNormalLogPDFMatchesPDF(t *testing.T) {
	n := Normal{Mu: -1.5, Sigma: 0.7}
	for _, x := range []float64{-5, -1.5, 0, 2, 10} {
		z := (x - n.Mu) / n.Sigma
		logPDF := -0.5*z*z - math.Log(n.Sigma) - 0.5*math.Log(2*math.Pi)
		closeTo(t, logPDF, math.Log(n.PDF(x)), 1e-10, "log density vs log(PDF)")
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	closeTo(t, n.CDF(0), 0.5, 1e-12, "CDF(0)")
	closeTo(t, n.CDF(1.959963984540054), 0.975, 1e-9, "CDF(1.96)")
	closeTo(t, n.CDF(-1.959963984540054), 0.025, 1e-9, "CDF(-1.96)")
	closeTo(t, n.CDF(1), 0.8413447460685429, 1e-10, "CDF(1)")
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	n := Normal{Mu: 2, Sigma: 3}
	for _, p := range []float64{0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999} {
		x := n.Quantile(p)
		closeTo(t, n.CDF(x), p, 1e-10, "CDF(Quantile(p))")
	}
}

func TestNormalQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=0")
		}
	}()
	Normal{Mu: 0, Sigma: 1}.Quantile(0)
}

func TestNormalMoments(t *testing.T) {
	n := Normal{Mu: 5, Sigma: 1.5}
	closeTo(t, n.Mean(), 5, 0, "Mean")
	closeTo(t, n.Median(), 5, 0, "Median")
	closeTo(t, n.Mode(), 5, 0, "Mode")
	closeTo(t, n.Variance(), 2.25, 1e-12, "Variance")
	closeTo(t, n.StdDev(), 1.5, 0, "StdDev")
}

func TestNormalCDFMonotoneProperty(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 2}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return n.CDF(lo) <= n.CDF(hi)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileRoundTripProperty(t *testing.T) {
	n := Normal{Mu: 1, Sigma: 0.5}
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p <= 1e-6 || p >= 1-1e-6 || math.IsNaN(p) {
			return true
		}
		x := n.Quantile(p)
		return math.Abs(n.CDF(x)-p) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
