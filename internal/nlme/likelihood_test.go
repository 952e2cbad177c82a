package nlme

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
)

// LogLikelihood evaluates the exact marginal log-likelihood of the
// mixed model at the given parameters (weights, σε, σρ) — the quantity
// Fit's profiled objective maximizes — using the closed form: the log-residual vector of each group is multivariate
// normal with covariance σε²·I + σρ²·J, whose determinant and inverse
// follow from the matrix determinant lemma and Sherman–Morrison.
func LogLikelihood(d *Data, weights []float64, sigmaEps, sigmaRho float64) (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if sigmaEps <= 0 {
		return 0, fmt.Errorf("nlme: sigmaEps must be positive, got %v", sigmaEps)
	}
	if sigmaRho < 0 {
		return 0, fmt.Errorf("nlme: sigmaRho must be non-negative, got %v", sigmaRho)
	}
	logEta, err := d.predictorLogs(weights)
	if err != nil {
		return 0, err
	}
	_, members := d.groupIndex()
	se2 := sigmaEps * sigmaEps
	sr2 := sigmaRho * sigmaRho
	var ll float64
	for _, idx := range members {
		ni := float64(len(idx))
		var sum, sumsq float64
		for _, i := range idx {
			r := math.Log(d.Efforts[i]) - logEta[i]
			sum += r
			sumsq += r * r
		}
		logDet := (ni-1)*math.Log(se2) + math.Log(se2+ni*sr2)
		quad := (sumsq - sr2/(se2+ni*sr2)*sum*sum) / se2
		ll += -0.5 * (ni*math.Log(2*math.Pi) + logDet + quad)
	}
	return ll, nil
}

// LogLikelihoodGH evaluates the same marginal log-likelihood by
// integrating the random effect out numerically with an adaptive
// Gauss–Hermite rule of the given size, centered on each group's
// posterior mode. This mirrors how SAS PROC NLMIXED evaluates the
// integral and serves as an independent check of LogLikelihood.
func LogLikelihoodGH(d *Data, weights []float64, sigmaEps, sigmaRho float64, nodes int) (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if sigmaEps <= 0 {
		return 0, fmt.Errorf("nlme: sigmaEps must be positive, got %v", sigmaEps)
	}
	if sigmaRho <= 0 {
		return 0, fmt.Errorf("nlme: sigmaRho must be positive for quadrature, got %v", sigmaRho)
	}
	if nodes < 2 {
		return 0, fmt.Errorf("nlme: need at least 2 quadrature nodes, got %d", nodes)
	}
	logEta, err := d.predictorLogs(weights)
	if err != nil {
		return 0, err
	}
	gh := NewGaussHermite(nodes)
	se2 := sigmaEps * sigmaEps
	sr2 := sigmaRho * sigmaRho
	_, members := d.groupIndex()

	var ll float64
	for _, idx := range members {
		ni := float64(len(idx))
		var sum float64
		resid := make([]float64, 0, len(idx))
		for _, i := range idx {
			r := math.Log(d.Efforts[i]) - logEta[i]
			resid = append(resid, r)
			sum += r
		}
		// Gaussian posterior of the random effect b given the residuals:
		// precision = n/σε² + 1/σρ², mean = (Σr/σε²)/precision.
		prec := ni/se2 + 1/sr2
		mu := (sum / se2) / prec
		sd := 1 / math.Sqrt(prec)

		// log f(b) = Σ_j log N(r_j; b, σε²) + log N(b; 0, σρ²)
		logf := func(b float64) float64 {
			v := -0.5*b*b/sr2 - 0.5*math.Log(2*math.Pi*sr2)
			for _, r := range resid {
				z := (r - b) / sigmaEps
				v += -0.5*z*z - 0.5*math.Log(2*math.Pi*se2)
			}
			return v
		}

		// Adaptive GH: ∫f(b)db = √2·sd·Σ_l w_l·e^{t_l²}·f(mu+√2·sd·t_l),
		// computed with log-sum-exp for numerical robustness.
		terms := make([]float64, len(gh.Nodes))
		maxTerm := math.Inf(-1)
		for l, t := range gh.Nodes {
			b := mu + math.Sqrt2*sd*t
			terms[l] = math.Log(gh.Weights[l]) + t*t + logf(b)
			if terms[l] > maxTerm {
				maxTerm = terms[l]
			}
		}
		var s float64
		for _, tv := range terms {
			s += math.Exp(tv - maxTerm)
		}
		ll += maxTerm + math.Log(s) + math.Log(math.Sqrt2*sd)
	}
	return ll, nil
}

// Residuals returns the log-scale residuals log Eff − log η under the
// given weights, in observation order.
func Residuals(d *Data, weights []float64) ([]float64, error) {
	logEta, err := d.predictorLogs(weights)
	if err != nil {
		return nil, err
	}
	out := make([]float64, d.NumObs())
	for i := range out {
		out[i] = math.Log(d.Efforts[i]) - logEta[i]
	}
	return out, nil
}

func TestClosedFormMatchesQuadrature(t *testing.T) {
	// The closed-form marginal likelihood and the adaptive
	// Gauss–Hermite integral must agree to high precision — they are
	// independent derivations of the same quantity.
	d := paperData(dataset.Stmts, dataset.FanInLC)
	cases := []struct {
		w      []float64
		se, sr float64
	}{
		{[]float64{0.004, 0.0001}, 0.5, 0.3},
		{[]float64{0.002, 0.0005}, 0.8, 0.8},
		{[]float64{0.01, 0.00001}, 0.3, 1.5},
	}
	for _, c := range cases {
		exact, err := LogLikelihood(d, c.w, c.se, c.sr)
		if err != nil {
			t.Fatal(err)
		}
		gh, err := LogLikelihoodGH(d, c.w, c.se, c.sr, 30)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-gh) > 1e-6 {
			t.Errorf("w=%v σε=%v σρ=%v: closed form %v vs quadrature %v", c.w, c.se, c.sr, exact, gh)
		}
	}
}

func TestQuadratureConvergesWithNodes(t *testing.T) {
	d := paperData(dataset.Stmts)
	w := []float64{0.004}
	exact, err := LogLikelihood(d, w, 0.5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	var prevErr float64 = math.Inf(1)
	for _, nodes := range []int{3, 5, 10, 20} {
		gh, err := LogLikelihoodGH(d, w, 0.5, 0.4, nodes)
		if err != nil {
			t.Fatal(err)
		}
		e := math.Abs(gh - exact)
		if e > prevErr+1e-9 {
			t.Errorf("error grew from %v to %v at %d nodes", prevErr, e, nodes)
		}
		prevErr = e
	}
	if prevErr > 1e-8 {
		t.Errorf("20-node quadrature error %v too large", prevErr)
	}
}

func TestLogLikelihoodTinySigmaRhoApproachesFixed(t *testing.T) {
	// As σρ → 0 the mixed likelihood approaches the independent-error
	// likelihood.
	d := paperData(dataset.Stmts)
	w := []float64{0.004}
	mixed, err := LogLikelihood(d, w, 0.5, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Independent: Σ log N(r_i; 0, σε²).
	resid, err := Residuals(d, w)
	if err != nil {
		t.Fatal(err)
	}
	var indep float64
	for _, r := range resid {
		indep += -0.5*(r/0.5)*(r/0.5) - math.Log(0.5) - 0.5*math.Log(2*math.Pi)
	}
	if math.Abs(mixed-indep) > 1e-6 {
		t.Errorf("σρ→0 likelihood %v, independent %v", mixed, indep)
	}
}

func TestLogLikelihoodParameterErrors(t *testing.T) {
	d := paperData(dataset.Stmts)
	if _, err := LogLikelihood(d, []float64{0.004}, 0, 0.5); err == nil {
		t.Error("expected σε>0 error")
	}
	if _, err := LogLikelihood(d, []float64{0.004}, 0.5, -1); err == nil {
		t.Error("expected σρ>=0 error")
	}
	if _, err := LogLikelihoodGH(d, []float64{0.004}, 0.5, 0, 10); err == nil {
		t.Error("expected σρ>0 error for quadrature")
	}
	if _, err := LogLikelihoodGH(d, []float64{0.004}, 0.5, 0.5, 1); err == nil {
		t.Error("expected node-count error")
	}
	if _, err := LogLikelihood(d, []float64{0}, 0.5, 0.5); err == nil {
		t.Error("expected non-positive predictor error")
	}
}

func TestResidualsCenterAtOptimum(t *testing.T) {
	// At the fixed-effects ML optimum of a single-metric model the mean
	// log residual is ~0: the weight acts as a free intercept on the
	// log scale.
	d := paperData(dataset.LoC)
	r, err := FitFixed(d, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resid, err := Residuals(d, r.Weights)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range resid {
		mean += v
	}
	mean /= float64(len(resid))
	if math.Abs(mean) > 1e-4 {
		t.Errorf("mean residual = %v, want ≈0", mean)
	}
}
