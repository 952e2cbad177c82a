package stats

import (
	"fmt"
	"math"
)

// Normal is a normal (Gaussian) distribution with mean Mu and standard
// deviation Sigma. The zero value is not useful; Sigma must be positive.
type Normal struct {
	Mu    float64
	Sigma float64
}

// PDF returns the probability density at x.
func (n Normal) PDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-0.5*z*z) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 {
	z := (x - n.Mu) / (n.Sigma * math.Sqrt2)
	return 0.5 * math.Erfc(-z)
}

// Quantile returns the value x such that CDF(x) = p. It panics if p is
// outside (0, 1).
func (n Normal) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: Normal.Quantile: p must be in (0,1), got %v", p))
	}
	return n.Mu + n.Sigma*math.Sqrt2*math.Erfinv(2*p-1)
}

// Mean returns the mean of the distribution.
func (n Normal) Mean() float64 { return n.Mu }

// Median returns the median of the distribution.
func (n Normal) Median() float64 { return n.Mu }

// Mode returns the mode of the distribution.
func (n Normal) Mode() float64 { return n.Mu }

// Variance returns the variance of the distribution.
func (n Normal) Variance() float64 { return n.Sigma * n.Sigma }

// StdDev returns the standard deviation of the distribution.
func (n Normal) StdDev() float64 { return n.Sigma }
