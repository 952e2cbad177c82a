package stats

import (
	"fmt"
	"math"
)

// Lognormal is a lognormal distribution: X is lognormal(Mu, Sigma) when
// ln(X) is normal with mean Mu and standard deviation Sigma.
//
// The paper (Section 3.1) uses lognormal distributions with Mu = 0 for
// both the productivity factor ρ and the multiplicative error ε, so that
// the median of each is exactly 1: half the projects have ρ > 1 and half
// have ρ < 1.
type Lognormal struct {
	Mu    float64
	Sigma float64
}

// NewLognormal returns a Lognormal distribution with log-mean mu and
// log-standard-deviation sigma. It panics if sigma is not positive.
func NewLognormal(mu, sigma float64) Lognormal {
	if sigma <= 0 || math.IsNaN(sigma) {
		panic(fmt.Sprintf("stats: NewLognormal: sigma must be positive, got %v", sigma))
	}
	return Lognormal{Mu: mu, Sigma: sigma}
}

// PDF returns the probability density at x. The density is zero for
// x <= 0.
func (l Lognormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return math.Exp(-0.5*z*z) / (x * l.Sigma * math.Sqrt(2*math.Pi))
}

// Quantile returns the value x such that P(X <= x) = p. It panics if p
// is outside (0, 1).
func (l Lognormal) Quantile(p float64) float64 {
	return math.Exp(Normal{Mu: l.Mu, Sigma: l.Sigma}.Quantile(p))
}

// Mean returns the mean exp(Mu + Sigma²/2). With Mu = 0 this is the
// e^(σ²/2) factor of Equation 4 in the paper, which converts the median
// design-effort estimate into the mean estimate.
func (l Lognormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// Median returns the median exp(Mu). With Mu = 0 the median is 1.
func (l Lognormal) Median() float64 { return math.Exp(l.Mu) }

// Mode returns the mode exp(Mu - Sigma²).
func (l Lognormal) Mode() float64 {
	return math.Exp(l.Mu - l.Sigma*l.Sigma)
}

// ConfidenceFactors returns the multiplicative factors (yl, yh) such
// that a lognormal(0, sigma) variable lies in [yl, yh] with probability
// conf. This is the mapping plotted in Figures 3 and 4 of the paper:
// given an estimate eff and an error SD σε, the conf-level confidence
// interval for the true effort is (yl·eff, yh·eff).
//
// For example, ConfidenceFactors(0.45, 0.90) ≈ (0.48, 2.10), matching
// the yl ≈ 0.5, yh ≈ 2.1 worked example in the paper.
func ConfidenceFactors(sigma, conf float64) (yl, yh float64) {
	if sigma < 0 || math.IsNaN(sigma) {
		panic(fmt.Sprintf("stats: ConfidenceFactors: sigma must be non-negative, got %v", sigma))
	}
	if conf <= 0 || conf >= 1 {
		panic(fmt.Sprintf("stats: ConfidenceFactors: conf must be in (0,1), got %v", conf))
	}
	if sigma == 0 {
		return 1, 1
	}
	l := NewLognormal(0, sigma)
	alpha := (1 - conf) / 2
	return l.Quantile(alpha), l.Quantile(1 - alpha)
}
