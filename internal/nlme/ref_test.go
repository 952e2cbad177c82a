package nlme

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// TestFitMatchesRef holds the profiled-scale fit to the full-θ
// reference: its likelihood must be at least the reference's, and σε,
// σρ and every weight must agree to 1e-6 relative.
func TestFitMatchesRef(t *testing.T) {
	cases := map[string]*Data{"paper/DEE1": paperData(dataset.Stmts, dataset.FanInLC)}
	for _, m := range dataset.AllMetrics {
		cases["paper/"+string(m)] = paperData(m)
	}
	rng := rand.New(rand.NewSource(12))
	for _, w := range [][]float64{{0.01}, {0.004, 0.0002}, {0.003, 0.0005, 0.01}} {
		for rep := 0; rep < 3; rep++ {
			cases[fmt.Sprintf("synth/k%d/%d", len(w), rep)] = synthData(rng, 6, 8, w, 0.4, 0.5)
		}
	}
	// A second metric that is zero on all rows but one.
	sparse := paperData(dataset.Stmts, dataset.FFs)
	for i := range sparse.Metrics {
		sparse.Metrics[i][1] = 0
	}
	sparse.Metrics[3][1] = 500
	cases["sparse-column"] = sparse

	for name, d := range cases {
		for _, mixed := range []bool{true, false} {
			got, err := fit(d, mixed, FitOptions{Concurrency: 1})
			if err != nil {
				t.Fatalf("%s mixed=%v: %v", name, mixed, err)
			}
			want, err := fitRef(d, mixed)
			if err != nil {
				t.Fatalf("%s mixed=%v ref: %v", name, mixed, err)
			}
			if got.LogLik < want.LogLik-1e-9*math.Abs(want.LogLik) {
				t.Errorf("%s mixed=%v: logLik %.12g below reference %.12g", name, mixed, got.LogLik, want.LogLik)
			}
			// Relative to the larger value, floored at scale: a parameter
			// the optimum pins at its zero boundary (σρ → 0, a weight
			// whose metric explains nothing) is flat there, so both fits
			// stop at some negligible value. σρ is measured against σε,
			// and a weight against the weight that would carry the whole
			// mean predictor by itself.
			check := func(what string, g, w, scale float64) {
				if math.Abs(g-w) > 1e-6*math.Max(math.Max(math.Abs(g), math.Abs(w)), scale) {
					t.Errorf("%s mixed=%v: %s = %.10g, reference %.10g", name, mixed, what, g, w)
				}
			}
			check("σε", got.SigmaEps, want.SigmaEps, 0)
			check("σρ", got.SigmaRho, want.SigmaRho, want.SigmaEps)
			means := make([]float64, len(want.Weights))
			var eta float64
			for k := range means {
				for _, row := range d.Metrics {
					means[k] += row[k] / float64(len(d.Metrics))
				}
				eta += want.Weights[k] * means[k]
			}
			for k := range got.Weights {
				check(fmt.Sprintf("w[%d]", k), got.Weights[k], want.Weights[k], eta/means[k])
			}
			if got.NumParams != want.NumParams || got.NumObs != want.NumObs {
				t.Errorf("%s mixed=%v: params/obs %d/%d, reference %d/%d", name, mixed, got.NumParams, got.NumObs, want.NumParams, want.NumObs)
			}
		}
	}
}

// fitRef is the full-θ fit the profiled-scale objective replaced, kept
// as a test reference the way netlist keeps optimizeRef: the optimizer
// searches θ = (log w_1..log w_k[, log λ]) directly, with only σε²
// profiled out, from the θ-space seeds below. It is slower (one more
// optimizer dimension, n logs per evaluation even for one metric) but
// independent of the closed-form scale, so the differential tests hold
// the production fit to it.
func fitRef(d *Data, mixed bool) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.NumObs()
	k := d.NumMetrics()
	names, members := d.groupIndex()
	logEff := make([]float64, n)
	for i, e := range d.Efforts {
		logEff[i] = math.Log(e)
	}
	var obj func() func([]float64) float64
	if mixed {
		obj = func() func([]float64) float64 { return profiledObjective(d, members, logEff) }
	} else {
		obj = func() func([]float64) float64 { return refFixedObjective(d, logEff) }
	}
	best := stats.MinimizeMultistart(obj, refStartingPoints(d, mixed), stats.NelderMeadOptions{MaxIter: 40000, TolF: 1e-12, TolX: 1e-9}, 1)
	if math.IsInf(best.F, 1) {
		return nil, errInfeasible
	}
	w := make([]float64, k)
	for i := 0; i < k; i++ {
		w[i] = math.Exp(best.X[i])
	}
	var lambda float64
	if mixed {
		lambda = math.Exp(best.X[k])
	}
	logEta, err := d.predictorLogs(w)
	if err != nil {
		return nil, err
	}
	var q float64
	groupSum := make([]float64, len(members))
	for gi, idx := range members {
		var sum, sumsq float64
		for _, i := range idx {
			r := logEff[i] - logEta[i]
			sum += r
			sumsq += r * r
		}
		ni := float64(len(idx))
		q += sumsq - lambda/(1+ni*lambda)*sum*sum
		groupSum[gi] = sum
	}
	sigmaEps2 := q / float64(n)
	sigmaRho2 := lambda * sigmaEps2
	prods := make(map[string]float64, len(names))
	for gi, name := range names {
		ni := float64(len(members[gi]))
		b := 0.0
		if mixed {
			b = sigmaRho2 * groupSum[gi] / (sigmaEps2 + ni*sigmaRho2)
		}
		prods[name] = math.Exp(-b)
	}
	params := k + 1
	if mixed {
		params = k + 2
	}
	return &Result{
		Weights:        w,
		MetricNames:    append([]string(nil), d.MetricNames...),
		SigmaEps:       math.Sqrt(sigmaEps2),
		SigmaRho:       math.Sqrt(sigmaRho2),
		LogLik:         -best.F,
		NumParams:      params,
		NumObs:         n,
		Productivities: prods,
		Converged:      best.Converged,
		Mixed:          mixed,
	}, nil
}

// profiledObjective is the negative log-likelihood of the mixed model
// over θ = (log w_1..log w_k, log λ) with σε² profiled at Q/n:
//
//	−2·logL = n·log 2π + n·log σε² + Σ_i log(1+n_i·λ) + Q(λ,w)/σε²
//	Q(λ,w)  = Σ_i [ Σ_j r_ij² − λ/(1+n_i·λ)·(Σ_j r_ij)² ]
func profiledObjective(d *Data, members [][]int, logEff []float64) func(theta []float64) float64 {
	k := d.NumMetrics()
	n := d.NumObs()
	w := make([]float64, k)
	logEta := make([]float64, n)
	return func(theta []float64) float64 {
		for i := 0; i < k; i++ {
			if theta[i] > 400 || theta[i] < -400 {
				return math.Inf(1)
			}
			w[i] = math.Exp(theta[i])
		}
		lambda := math.Exp(theta[k])
		if math.IsInf(lambda, 1) {
			return math.Inf(1)
		}
		if d.predictorLogsInto(logEta, w) != nil {
			return math.Inf(1)
		}
		var q, logDetTerm float64
		for _, idx := range members {
			var sum, sumsq float64
			for _, i := range idx {
				r := logEff[i] - logEta[i]
				sum += r
				sumsq += r * r
			}
			ni := float64(len(idx))
			q += sumsq - lambda/(1+ni*lambda)*sum*sum
			logDetTerm += math.Log(1 + ni*lambda)
		}
		if q <= 0 || math.IsNaN(q) {
			return math.Inf(1)
		}
		nn := float64(n)
		return 0.5 * (nn*math.Log(2*math.Pi) + nn*math.Log(q/nn) + logDetTerm + nn)
	}
}

// refFixedObjective is the ρ = 1 model's negative log-likelihood over
// θ = (log w_1..log w_k) with σε² profiled at RSS/n.
func refFixedObjective(d *Data, logEff []float64) func(theta []float64) float64 {
	k := d.NumMetrics()
	n := d.NumObs()
	w := make([]float64, k)
	logEta := make([]float64, n)
	return func(theta []float64) float64 {
		for i := 0; i < k; i++ {
			if theta[i] > 400 || theta[i] < -400 {
				return math.Inf(1)
			}
			w[i] = math.Exp(theta[i])
		}
		if d.predictorLogsInto(logEta, w) != nil {
			return math.Inf(1)
		}
		var rss float64
		for i := range logEff {
			r := logEff[i] - logEta[i]
			rss += r * r
		}
		if rss <= 0 {
			return math.Inf(-1)
		}
		nn := float64(n)
		return 0.5 * (nn*math.Log(2*math.Pi) + nn*math.Log(rss/nn) + nn)
	}
}

// refStartingPoints is the θ-space seed set: the scale and OLS
// heuristics, the scale seed shifted by ±2, two lopsided seeds when
// k = 2, and for the mixed model each crossed with λ ∈ {¼, 1, 4}.
func refStartingPoints(d *Data, mixed bool) [][]float64 {
	k := d.NumMetrics()
	scale, ols := weightSeeds(d)
	bases := [][]float64{scale, ols}
	for _, delta := range []float64{-2, 2} {
		v := append([]float64(nil), scale...)
		for j := range v {
			v[j] += delta
		}
		bases = append(bases, v)
	}
	if k == 2 {
		bases = append(bases,
			[]float64{scale[0] + 3, scale[1] - 3},
			[]float64{scale[0] - 3, scale[1] + 3})
	}
	if !mixed {
		return bases
	}
	var starts [][]float64
	for _, b := range bases {
		for _, l := range []float64{0.25, 1, 4} {
			starts = append(starts, append(append([]float64(nil), b...), math.Log(l)))
		}
	}
	return starts
}
