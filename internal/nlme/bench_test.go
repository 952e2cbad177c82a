package nlme

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func BenchmarkFitDEE1(b *testing.B) {
	b.ReportAllocs()
	d := paperData(dataset.Stmts, dataset.FanInLC)
	for i := 0; i < b.N; i++ {
		if _, err := Fit(d, FitOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitFixedSingle(b *testing.B) {
	b.ReportAllocs()
	d := paperData(dataset.Stmts)
	for i := 0; i < b.N; i++ {
		if _, err := FitFixed(d, FitOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogLikelihoodClosedForm(b *testing.B) {
	b.ReportAllocs()
	d := paperData(dataset.Stmts, dataset.FanInLC)
	w := []float64{0.004, 0.0001}
	for i := 0; i < b.N; i++ {
		if _, err := LogLikelihood(d, w, 0.5, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGaussHermiteConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewGaussHermite(30)
	}
}

// BenchmarkAblationQuadrature compares the closed-form marginal
// likelihood against adaptive Gauss–Hermite quadrature (the NLMIXED
// approach): identical values, very different cost.
func BenchmarkAblationQuadrature(b *testing.B) {
	b.ReportAllocs()
	d := paperData(dataset.Stmts, dataset.FanInLC)
	w := []float64{0.004, 0.0001}
	exact, err := LogLikelihood(d, w, 0.5, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := LogLikelihood(d, w, 0.5, 0.3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gauss-hermite-30", func(b *testing.B) {
		var gh float64
		for i := 0; i < b.N; i++ {
			v, err := LogLikelihoodGH(d, w, 0.5, 0.3, 30)
			if err != nil {
				b.Fatal(err)
			}
			gh = v
		}
		b.ReportMetric(math.Abs(gh-exact), "abs_disagreement")
	})
}

// BenchmarkAblationMultistart compares the multi-start Nelder–Mead
// DEE1 fit against a single start (the first seed: scale-heuristic
// weight ratio, λ = ¼), reporting each arm's σε.
func BenchmarkAblationMultistart(b *testing.B) {
	d := paperData(dataset.Stmts, dataset.FanInLC)
	b.Run("multistart", func(b *testing.B) {
		b.ReportAllocs()
		var sigma float64
		for i := 0; i < b.N; i++ {
			r, err := Fit(d, FitOptions{})
			if err != nil {
				b.Fatal(err)
			}
			sigma = r.SigmaEps
		}
		b.ReportMetric(sigma, "sigma_eps")
	})
	b.Run("single-start", func(b *testing.B) {
		b.ReportAllocs()
		names, members := d.groupIndex()
		var sigma float64
		for i := 0; i < b.N; i++ {
			p := newProfile(d, members, true)
			start := startingPoints(d, true)[0]
			r, err := p.result(stats.Minimize(p.objective, start, fitOptions), names)
			if err != nil {
				b.Fatal(err)
			}
			sigma = r.SigmaEps
		}
		b.ReportMetric(sigma, "sigma_eps")
	})
}
