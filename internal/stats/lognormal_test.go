package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLognormalMedianIsOneWhenMuZero(t *testing.T) {
	// Section 3.1 of the paper: with µ=0 the median of ρ and ε is 1,
	// so half of the projects have ρ > 1 and half ρ < 1.
	for _, sigma := range []float64{0.1, 0.45, 0.7, 2} {
		l := NewLognormal(0, sigma)
		closeTo(t, l.Median(), 1, 1e-12, "median with mu=0")
		closeTo(t, l.Quantile(0.5), 1, 1e-12, "Quantile(0.5) with mu=0")
	}
}

func TestLognormalFigure2Shape(t *testing.T) {
	// Figure 2 of the paper draws a lognormal with µ=0 whose mode is
	// 0.75 and mean is 1.16. Those two readings pin down σ² ≈ 0.29:
	// mode = e^{−σ²} and mean = e^{σ²/2}.
	sigma := math.Sqrt(2 * math.Log(1.16))
	l := NewLognormal(0, sigma)
	closeTo(t, l.Mean(), 1.16, 1e-9, "Figure 2 mean")
	closeTo(t, l.Mode(), 1/(1.16*1.16), 1e-9, "Figure 2 mode")
	// Mode ≈ 0.74 matches the figure's 0.75 annotation to plot precision.
	if l.Mode() < 0.72 || l.Mode() > 0.77 {
		t.Errorf("Figure 2 mode = %v, want ≈0.75", l.Mode())
	}
	// mode < median < mean, the ordering annotated in the figure.
	if !(l.Mode() < l.Median() && l.Median() < l.Mean()) {
		t.Errorf("want mode < median < mean, got %v %v %v", l.Mode(), l.Median(), l.Mean())
	}
}

func TestLognormalPDFIntegratesToOne(t *testing.T) {
	l := NewLognormal(0.3, 0.8)
	// Simple trapezoid integration over a wide range.
	const n = 200000
	lo, hi := 1e-9, 60.0
	h := (hi - lo) / n
	var sum float64
	for i := 0; i <= n; i++ {
		x := lo + float64(i)*h
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		sum += w * l.PDF(x)
	}
	closeTo(t, sum*h, 1, 1e-4, "∫PDF")
}

func TestLognormalCDFQuantileRoundTrip(t *testing.T) {
	l := NewLognormal(-0.2, 0.6)
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		x := l.Quantile(p)
		closeTo(t, normalCDF(Normal{Mu: l.Mu, Sigma: l.Sigma}, math.Log(x)), p, 1e-10, "CDF(Quantile(p))")
	}
}

func TestLognormalZeroAndNegativeSupport(t *testing.T) {
	l := NewLognormal(0, 1)
	if l.PDF(0) != 0 || l.PDF(-3) != 0 {
		t.Error("PDF must be zero for x <= 0")
	}
}

func TestLognormalMeanEquation4Factor(t *testing.T) {
	// Equation 4: eff_mean = eff_median · e^{(σε²+σρ²)/2}. With two
	// independent lognormal factors the combined SD is √(σε²+σρ²), so
	// the mean of the product is exp((σε²+σρ²)/2).
	se, sr := 0.46, 0.3
	combined := NewLognormal(0, math.Hypot(se, sr))
	closeTo(t, combined.Mean(), math.Exp((se*se+sr*sr)/2), 1e-12, "Eq.4 factor")
}

func TestConfidenceFactorsPaperExample(t *testing.T) {
	// Paper, Section 3.1: "if σε = 0.45 then yh ≈ 2.1 and yl ≈ 0.5.
	// Therefore the 90% confidence interval is (0.5·eff, 2.1·eff)".
	yl, yh := ConfidenceFactors(0.45, 0.90)
	if yl < 0.45 || yl > 0.52 {
		t.Errorf("yl = %v, want ≈0.5", yl)
	}
	if yh < 2.0 || yh > 2.2 {
		t.Errorf("yh = %v, want ≈2.1", yh)
	}
	// The pair must be reciprocal for a µ=0 lognormal.
	closeTo(t, yl*yh, 1, 1e-9, "yl·yh")
}

func TestConfidenceFactorsTable4Examples(t *testing.T) {
	// Section 5.1 quotes several σε → 90% CI mappings. Check each to
	// the 2-digit precision the paper reports.
	cases := []struct {
		sigma  float64
		lo, hi float64
	}{
		{0.50, 0.44, 2.28},  // Stmts
		{0.55, 0.40, 2.47},  // FanInLC / LoC
		{1.23, 0.13, 7.56},  // AreaL
		{0.94, 0.21, 4.69},  // Freq
		{2.07, 0.03, 30.11}, // AreaS
		{2.14, 0.03, 33.78}, // FFs
		{1.34, 0.11, 9.06},  // PowerD
		{1.44, 0.09, 10.68}, // PowerS
		{0.46, 0.47, 2.13},  // DEE1
	}
	for _, c := range cases {
		yl, yh := ConfidenceFactors(c.sigma, 0.90)
		if math.Abs(yl-c.lo) > 0.011 {
			t.Errorf("σε=%v: yl = %.3f, want %.2f", c.sigma, yl, c.lo)
		}
		if math.Abs(yh-c.hi) > 0.03*c.hi {
			t.Errorf("σε=%v: yh = %.3f, want %.2f", c.sigma, yh, c.hi)
		}
	}
}

func TestConfidenceFactorsZeroSigma(t *testing.T) {
	yl, yh := ConfidenceFactors(0, 0.9)
	if yl != 1 || yh != 1 {
		t.Errorf("σ=0 must give degenerate (1,1), got (%v,%v)", yl, yh)
	}
}

func TestConfidenceFactorsReciprocalProperty(t *testing.T) {
	f := func(rawSigma, rawConf float64) bool {
		sigma := math.Abs(math.Mod(rawSigma, 3))
		conf := math.Abs(math.Mod(rawConf, 1))
		if sigma < 1e-3 || conf < 1e-3 || conf > 1-1e-3 {
			return true
		}
		yl, yh := ConfidenceFactors(sigma, conf)
		// Reciprocal, ordered, and widening in sigma.
		if math.Abs(yl*yh-1) > 1e-8 || yl >= yh {
			return false
		}
		yl2, yh2 := ConfidenceFactors(sigma*1.5, conf)
		return yl2 <= yl && yh2 >= yh
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
