package nlme

import (
	"fmt"
	"math"
	"testing"
)

// GaussHermite holds the nodes and weights of an n-point Gauss–Hermite
// quadrature rule: ∫ f(x)·e^(−x²) dx ≈ Σ w_i·f(x_i).
type GaussHermite struct {
	Nodes   []float64
	Weights []float64
}

// NewGaussHermite computes the n-point Gauss–Hermite rule using Newton
// iteration on the physicists' Hermite polynomial H_n, with the standard
// asymptotic initial guesses (Numerical Recipes style). n must be at
// least 1; rules up to a few hundred points are accurate.
//
// LogLikelihoodGH uses this rule (after an adaptive change of
// variables) to integrate out the random productivity effect as a
// cross-check of the closed-form marginal likelihood.
func NewGaussHermite(n int) GaussHermite {
	if n < 1 {
		panic(fmt.Sprintf("nlme: NewGaussHermite: n must be >= 1, got %d", n))
	}
	x := make([]float64, n)
	w := make([]float64, n)
	const eps = 3e-14
	m := (n + 1) / 2
	var z float64
	for i := 0; i < m; i++ {
		// Initial guesses for the i-th largest root.
		switch i {
		case 0:
			z = math.Sqrt(float64(2*n+1)) - 1.85575*math.Pow(float64(2*n+1), -1.0/6.0)
		case 1:
			z -= 1.14 * math.Pow(float64(n), 0.426) / z
		case 2:
			z = 1.86*z - 0.86*x[0]
		case 3:
			z = 1.91*z - 0.91*x[1]
		default:
			z = 2*z - x[i-2]
		}
		var pp float64
		for iter := 0; iter < 100; iter++ {
			// Evaluate H_n(z) (orthonormal form) by recurrence.
			p1 := math.Pow(math.Pi, -0.25)
			p2 := 0.0
			for j := 0; j < n; j++ {
				p3 := p2
				p2 = p1
				p1 = z*math.Sqrt(2.0/float64(j+1))*p2 - math.Sqrt(float64(j)/float64(j+1))*p3
			}
			pp = math.Sqrt(2*float64(n)) * p2
			z1 := z
			z = z1 - p1/pp
			if math.Abs(z-z1) <= eps {
				break
			}
		}
		x[i] = z
		x[n-1-i] = -z
		w[i] = 2.0 / (pp * pp)
		w[n-1-i] = w[i]
	}
	return GaussHermite{Nodes: x, Weights: w}
}

// Integrate approximates ∫ f(x)·e^(−x²) dx with the rule.
func (g GaussHermite) Integrate(f func(float64) float64) float64 {
	var sum float64
	for i, x := range g.Nodes {
		sum += g.Weights[i] * f(x)
	}
	return sum
}

// IntegrateNormal approximates E[f(X)] for X ~ Normal(mu, sigma) using
// the substitution x = mu + sqrt(2)·sigma·t:
//
//	E[f(X)] = (1/√π) Σ w_i · f(mu + √2·sigma·t_i)
func (g GaussHermite) IntegrateNormal(f func(float64) float64, mu, sigma float64) float64 {
	if sigma <= 0 {
		panic(fmt.Sprintf("nlme: IntegrateNormal: sigma must be positive, got %v", sigma))
	}
	var sum float64
	for i, t := range g.Nodes {
		sum += g.Weights[i] * f(mu+math.Sqrt2*sigma*t)
	}
	return sum / math.Sqrt(math.Pi)
}

func closeTo(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}

func TestGaussHermiteWeightSum(t *testing.T) {
	// Σ w_i = ∫ e^{−x²} dx = √π for every rule size.
	for _, n := range []int{1, 2, 5, 10, 20, 40, 64} {
		g := NewGaussHermite(n)
		var sum float64
		for _, w := range g.Weights {
			sum += w
		}
		closeTo(t, sum, math.Sqrt(math.Pi), 1e-9, "weight sum")
	}
}

func TestGaussHermiteMoments(t *testing.T) {
	g := NewGaussHermite(20)
	// ∫ x²·e^{−x²} dx = √π/2
	closeTo(t, g.Integrate(func(x float64) float64 { return x * x }), math.Sqrt(math.Pi)/2, 1e-9, "2nd moment")
	// ∫ x⁴·e^{−x²} dx = 3√π/4
	closeTo(t, g.Integrate(func(x float64) float64 { return x * x * x * x }), 3*math.Sqrt(math.Pi)/4, 1e-9, "4th moment")
	// Odd moments vanish by symmetry.
	closeTo(t, g.Integrate(func(x float64) float64 { return x * x * x }), 0, 1e-9, "odd moment")
}

func TestGaussHermiteExactForPolynomials(t *testing.T) {
	// An n-point rule integrates polynomials up to degree 2n−1 exactly.
	g := NewGaussHermite(3)
	// degree 5: x⁵ integrates to 0; x⁴ handled above with bigger rule —
	// check x⁴ with the 3-point rule, degree 4 ≤ 2·3−1.
	closeTo(t, g.Integrate(func(x float64) float64 { return x * x * x * x }), 3*math.Sqrt(math.Pi)/4, 1e-10, "deg-4 with 3 points")
}

func TestGaussHermiteNodesSymmetric(t *testing.T) {
	g := NewGaussHermite(7)
	n := len(g.Nodes)
	for i := 0; i < n/2; i++ {
		closeTo(t, g.Nodes[i], -g.Nodes[n-1-i], 1e-10, "node symmetry")
		closeTo(t, g.Weights[i], g.Weights[n-1-i], 1e-10, "weight symmetry")
	}
	// Odd rule has a node at 0.
	closeTo(t, g.Nodes[n/2], 0, 1e-10, "center node")
}

func TestIntegrateNormalExpectation(t *testing.T) {
	g := NewGaussHermite(30)
	mu, sigma := 1.5, 0.8
	// E[X] = mu
	closeTo(t, g.IntegrateNormal(func(x float64) float64 { return x }, mu, sigma), mu, 1e-9, "E[X]")
	// E[X²] = mu² + sigma²
	closeTo(t, g.IntegrateNormal(func(x float64) float64 { return x * x }, mu, sigma), mu*mu+sigma*sigma, 1e-9, "E[X²]")
	// E[e^X] = e^{mu + sigma²/2} (lognormal mean)
	closeTo(t, g.IntegrateNormal(math.Exp, mu, sigma), math.Exp(mu+sigma*sigma/2), 1e-6, "E[e^X]")
}

func TestNewGaussHermitePanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGaussHermite(0)
}
