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

// Quantile returns the value x such that P(X <= x) = p. It panics if p
// is outside (0, 1).
func (n Normal) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: Normal.Quantile: p must be in (0,1), got %v", p))
	}
	return n.Mu + n.Sigma*math.Sqrt2*math.Erfinv(2*p-1)
}
