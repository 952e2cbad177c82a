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

// normalCDF is the normal distribution function, the reference the
// Quantile tests invert.
func normalCDF(n Normal, x float64) float64 {
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// TestNormalLogPDFMatchesPDF checks the normal log density against the
// lognormal density, which is the normal density of ln y over y.
func TestNormalLogPDFMatchesPDF(t *testing.T) {
	n := Normal{Mu: -1.5, Sigma: 0.7}
	l := Lognormal{Mu: n.Mu, Sigma: n.Sigma}
	for _, x := range []float64{-5, -1.5, 0, 2, 10} {
		z := (x - n.Mu) / n.Sigma
		logPDF := -0.5*z*z - math.Log(n.Sigma) - 0.5*math.Log(2*math.Pi)
		closeTo(t, logPDF, math.Log(l.PDF(math.Exp(x)))+x, 1e-10, "log density vs log(PDF)")
	}
}

// TestNormalCDFKnownValues checks known points of the standard normal
// distribution function through its inverse.
func TestNormalCDFKnownValues(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	closeTo(t, n.Quantile(0.5), 0, 1e-12, "Quantile(0.5)")
	closeTo(t, n.Quantile(0.975), 1.959963984540054, 1e-8, "Quantile(0.975)")
	closeTo(t, n.Quantile(0.025), -1.959963984540054, 1e-8, "Quantile(0.025)")
	closeTo(t, n.Quantile(0.8413447460685429), 1, 1e-8, "Quantile(CDF(1))")
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	n := Normal{Mu: 2, Sigma: 3}
	for _, p := range []float64{0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999} {
		x := n.Quantile(p)
		closeTo(t, normalCDF(n, x), p, 1e-10, "CDF(Quantile(p))")
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

// TestNormalCDFMonotoneProperty: the distribution function is
// monotone, so its inverse Quantile is too.
func TestNormalCDFMonotoneProperty(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 2}
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if a == 0 || b == 0 || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return n.Quantile(lo) <= n.Quantile(hi)
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
		return math.Abs(normalCDF(n, x)-p) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
