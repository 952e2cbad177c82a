package nlme

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/stats"
)

// Result is a fitted mixed-effects model.
type Result struct {
	// Weights are the fixed-effect coefficients w_k of Equation 1.
	Weights []float64
	// MetricNames labels Weights (copied from the input data; may be nil).
	MetricNames []string
	// SigmaEps is σε, the standard deviation of the log of the
	// multiplicative error ε. This is the paper's goodness-of-fit
	// measure: lower is better, zero is perfect.
	SigmaEps float64
	// SigmaRho is σρ, the standard deviation of the log of the
	// productivity ρ across projects. Zero for FitFixed.
	SigmaRho float64
	// LogLik is the maximized marginal log-likelihood of the log-scale
	// model (what SAS NLMIXED / R nlme method="ML" report).
	LogLik float64
	// NumParams counts the free parameters: len(Weights) + 2 for the
	// mixed model (σε, σρ), or + 1 for the fixed model (σε).
	NumParams int
	// NumObs is the number of observations fitted.
	NumObs int
	// Productivities maps each project to its empirical-Bayes ρ_i
	// estimate (exp of minus the BLUP of the random effect). For
	// FitFixed every project has ρ = 1.
	Productivities map[string]float64
	// Converged reports whether the optimizer met its tolerances.
	Converged bool
	// Mixed records whether the random productivity effect was fitted.
	Mixed bool
}

// AIC returns Akaike's Information Criterion, −2·logL + 2·p.
// Lower is better (Section 5.1.1).
func (r *Result) AIC() float64 { return -2*r.LogLik + 2*float64(r.NumParams) }

// BIC returns the Bayesian Information Criterion, −2·logL + p·ln(n).
// Lower is better (Section 5.1.1).
func (r *Result) BIC() float64 {
	return -2*r.LogLik + float64(r.NumParams)*math.Log(float64(r.NumObs))
}

// Predict returns the estimated (median) design effort
// (1/ρ)·Σ_k w_k·m_k for one metric vector and a productivity factor.
// Use rho = 1 for an unadjusted or relative estimate (Section 3.1.1).
func (r *Result) Predict(metrics []float64, rho float64) (float64, error) {
	if len(metrics) != len(r.Weights) {
		return 0, fmt.Errorf("nlme: Predict: %d metrics for %d weights", len(metrics), len(r.Weights))
	}
	if rho <= 0 {
		return 0, fmt.Errorf("nlme: Predict: productivity must be positive, got %v", rho)
	}
	var eta float64
	for k, m := range metrics {
		eta += r.Weights[k] * m
	}
	return eta / rho, nil
}

// MeanFactor returns e^((σε²+σρ²)/2), the Equation 4 factor that
// converts the median effort estimate into the mean estimate.
func (r *Result) MeanFactor() float64 {
	return math.Exp((r.SigmaEps*r.SigmaEps + r.SigmaRho*r.SigmaRho) / 2)
}

// ConfidenceInterval returns the conf-level interval (lo, hi) for the
// true effort around the median estimate eff, using the fitted σε
// (Figures 3 and 4 of the paper).
func (r *Result) ConfidenceInterval(eff, conf float64) (lo, hi float64) {
	yl, yh := stats.ConfidenceFactors(r.SigmaEps, conf)
	return yl * eff, yh * eff
}

// profile is the one objective Fit and FitFixed minimize. Write the
// log-scale model with the overall scale c = log w_1 and the weight
// ratios r_k = w_k/w_1 apart:
//
//	log Eff_ij = c + log u_ij + b_i + e_ij,   u_ij = m_ij1 + Σ_{k≥2} r_k·m_ijk
//
// c enters additively, exactly as the random effect b_i does, so for
// fixed ratios and λ = σρ²/σε² its ML value is the GLS mean of
// y_ij = log Eff_ij − log u_ij, and σε² = Q/n follows. With y centered
// at its mean ȳ, per-group sums n_i, S_i = Σ_j y_ij, SS_i = Σ_j y_ij²
// and a_i = 1/(1+n_i·λ):
//
//	δ*     = Σ_i a_i·S_i / Σ_i a_i·n_i          (c* = ȳ + δ*)
//	Q      = Σ_i (SS_i − λ·a_i·S_i²) − δ*·Σ_i a_i·S_i
//	−logL  = ½·(n·log 2π + n·log(Q/n) + Σ_i log(1+n_i·λ) + n)
//
// The fixed model is λ = 0, where c* is the plain mean. The optimizer
// therefore searches only φ = (log r_2..log r_k[, log λ]); once y's
// group sums are built, an evaluation costs O(groups). With one metric
// y does not depend on φ at all, so its sums are built once per fit.
//
// The ratio and y buffers are scratch: a profile is NOT safe for
// concurrent calls, and each optimizer pool worker evaluates its own
// copy (worker). Every scratch entry is written before it is read on
// each evaluation, so the copies compute bit-identical values.
type profile struct {
	d       *Data
	members [][]int
	logEff  []float64
	n       []float64 // group sizes n_i
	k       int
	mixed   bool

	w     []float64 // (1, r_2..r_k)
	y     []float64 // y_ij in observation order
	mean  float64   // ȳ
	s, ss []float64 // centered per-group S_i and SS_i
}

// fitOptions are the Nelder–Mead tolerances of every fit.
var fitOptions = stats.NelderMeadOptions{MaxIter: 40000, TolF: 1e-12, TolX: 1e-9}

func newProfile(d *Data, members [][]int, mixed bool) *profile {
	p := &profile{
		d:       d,
		members: members,
		logEff:  make([]float64, d.NumObs()),
		n:       make([]float64, len(members)),
		k:       d.NumMetrics(),
		mixed:   mixed,
	}
	for i, e := range d.Efforts {
		p.logEff[i] = math.Log(e)
	}
	for gi, idx := range members {
		p.n[gi] = float64(len(idx))
	}
	p.alloc()
	if p.k == 1 {
		// u_ij = m_ij1, which Validate made positive, so this cannot
		// fail; the sums are read-only from here on.
		p.sums(nil)
	}
	return p
}

func (p *profile) alloc() {
	p.w = make([]float64, p.k)
	p.w[0] = 1
	p.y = make([]float64, len(p.logEff))
	p.s = make([]float64, len(p.n))
	p.ss = make([]float64, len(p.n))
}

// worker returns a profile one optimizer pool worker may evaluate
// without synchronization. With one metric nothing is written after
// newProfile, so every worker shares p.
func (p *profile) worker() *profile {
	if p.k == 1 {
		return p
	}
	q := *p
	q.alloc()
	return &q
}

// sums computes y, ȳ and the centered group sums at the log weight
// ratios logR. It reports false for a point outside the ±400 bounds or
// with a non-positive predictor.
func (p *profile) sums(logR []float64) bool {
	for j, lr := range logR {
		if lr > 400 || lr < -400 {
			return false
		}
		p.w[j+1] = math.Exp(lr)
	}
	if p.d.predictorLogsInto(p.y, p.w) != nil {
		return false
	}
	var total float64
	for i, logU := range p.y {
		v := p.logEff[i] - logU
		p.y[i] = v
		total += v
	}
	p.mean = total / float64(len(p.y))
	for gi, idx := range p.members {
		var s, ss float64
		for _, i := range idx {
			v := p.y[i] - p.mean
			s += v
			ss += v * v
		}
		p.s[gi], p.ss[gi] = s, ss
	}
	return true
}

// scale profiles c out of the current sums at variance ratio λ (0 for
// the fixed model): it returns the centered GLS shift δ* (c* = ȳ + δ*),
// the residual quadratic form Q at c*, and Σ_i log(1+n_i·λ).
func (p *profile) scale(lambda float64) (delta, q, logDet float64) {
	var q0, sa, na float64
	for gi, ng := range p.n {
		s := p.s[gi]
		a := 1 / (1 + ng*lambda)
		q0 += p.ss[gi] - lambda*a*s*s
		sa += a * s
		na += a * ng
		if lambda != 0 {
			logDet += math.Log(1 + ng*lambda)
		}
	}
	delta = sa / na
	return delta, q0 - delta*sa, logDet
}

// objective returns −logL at φ with c and σε² profiled out.
func (p *profile) objective(phi []float64) float64 {
	k1 := p.k - 1
	if k1 > 0 && !p.sums(phi[:k1]) {
		return math.Inf(1)
	}
	var lambda float64
	if p.mixed {
		lambda = math.Exp(phi[k1])
		if math.IsInf(lambda, 1) {
			return math.Inf(1)
		}
	}
	_, q, logDet := p.scale(lambda)
	if math.IsNaN(q) || (q <= 0 && p.mixed) {
		return math.Inf(1)
	}
	if q <= 0 {
		// A perfect fixed-model fit: the likelihood is unbounded, so
		// report the limit and let the optimizer accept it.
		return math.Inf(-1)
	}
	nn := float64(len(p.y))
	return 0.5 * (nn*math.Log(2*math.Pi) + nn*math.Log(q/nn) + logDet + nn)
}

// result recovers the weights, variance components and productivities
// at the optimizer's best point.
func (p *profile) result(best stats.MinimizeResult, names []string) (*Result, error) {
	k1 := p.k - 1
	if k1 > 0 && !p.sums(best.X[:k1]) {
		return nil, fmt.Errorf("nlme: internal: optimum infeasible")
	}
	var lambda float64
	if p.mixed {
		lambda = math.Exp(best.X[k1])
	}
	delta, q, _ := p.scale(lambda)
	sigmaEps2 := math.Max(q, 0) / float64(len(p.y))
	w := make([]float64, p.k)
	w[0] = math.Exp(p.mean + delta)
	for j := 1; j < p.k; j++ {
		w[j] = w[0] * p.w[j]
	}
	// Empirical-Bayes (BLUP) productivities: the posterior mean of the
	// random effect b_i is λ·Σ_j r_ij / (1 + n_i·λ) with residuals
	// r_ij = y_ij − c*, and ρ_i = exp(−b_i) since b_i = −log ρ_i. The
	// fixed model's λ = 0 gives every project ρ = 1.
	prods := make(map[string]float64, len(names))
	for gi, name := range names {
		b := lambda * (p.s[gi] - p.n[gi]*delta) / (1 + p.n[gi]*lambda)
		prods[name] = math.Exp(-b)
	}
	params := p.k + 1
	if p.mixed {
		params = p.k + 2
	}
	return &Result{
		Weights:        w,
		MetricNames:    append([]string(nil), p.d.MetricNames...),
		SigmaEps:       math.Sqrt(sigmaEps2),
		SigmaRho:       math.Sqrt(lambda * sigmaEps2),
		LogLik:         -best.F,
		NumParams:      params,
		NumObs:         len(p.y),
		Productivities: prods,
		Converged:      best.Converged,
		Mixed:          p.mixed,
	}, nil
}

// FitOptions configures Fit and FitFixed.
type FitOptions struct {
	// Concurrency bounds the worker pool the multi-start restarts run
	// on: 0 means GOMAXPROCS, 1 forces the exact sequential path. The
	// fitted result is bit-identical for every value (the restarts are
	// independent and the reduction tie-breaks on start index), so the
	// knob only trades wall-clock time.
	Concurrency int
}

// Fit maximizes the marginal likelihood of the mixed-effects model and
// returns the fitted weights, variance components, productivities, and
// information criteria. The overall scale and σε are profiled out in
// closed form; multi-start Nelder–Mead searches the log weight ratios
// and the log variance ratio, seeded from per-metric effort/metric
// scale ratios and an OLS fit. The restarts run on the worker pool
// opts.Concurrency bounds.
func Fit(d *Data, opts FitOptions) (*Result, error) {
	return fit(d, true, opts)
}

// FitFixed fits the model of Section 3.2 with every ρ_i forced to 1:
// log Eff_ij = log(Σ_k w_k·m_ijk) + N(0, σε²). This is nonlinear least
// squares on the log scale, with σε² and the overall scale profiled
// out (their ML estimates), so a single-metric fit is closed form.
// Productivities in the result are all exactly 1.
func FitFixed(d *Data, opts FitOptions) (*Result, error) {
	return fit(d, false, opts)
}

func fit(d *Data, mixed bool, opts FitOptions) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	names, members := d.groupIndex()
	if mixed && len(names) < 2 {
		return nil, fmt.Errorf("nlme: mixed model needs at least 2 projects, got %d (use FitFixed)", len(names))
	}
	p := newProfile(d, members, mixed)
	starts := startingPoints(d, mixed)
	var best stats.MinimizeResult
	if len(starts[0]) == 0 {
		// One metric and no random effect: nothing is left to search.
		best = stats.MinimizeResult{F: p.objective(nil), Converged: true}
	} else {
		obj := func() func([]float64) float64 { return p.worker().objective }
		best = stats.MinimizeMultistart(obj, starts, fitOptions, opts.Concurrency)
	}
	if math.IsInf(best.F, 1) {
		return nil, fmt.Errorf("nlme: optimization found no feasible point")
	}
	return p.result(best, names)
}

// weightSeeds returns two heuristic log-weight vectors θ = log w.
func weightSeeds(d *Data) (scale, ols []float64) {
	k := d.NumMetrics()
	n := d.NumObs()
	scale = make([]float64, k)
	ols = make([]float64, k)

	// Heuristic 1: w_k = mean(effort) / (k · mean(metric_k)), the scale
	// that makes each term contribute equally on average.
	meanEff := stats.Mean(d.Efforts)
	for j := 0; j < k; j++ {
		var s float64
		cnt := 0
		for i := 0; i < n; i++ {
			if d.Metrics[i][j] > 0 {
				s += d.Metrics[i][j]
				cnt++
			}
		}
		if cnt == 0 || s == 0 {
			scale[j] = math.Log(1e-6)
			continue
		}
		scale[j] = math.Log(meanEff / (float64(k) * s / float64(cnt)))
	}

	// Heuristic 2: non-negative OLS of effort on metrics (negative
	// coefficients clipped to a tiny positive fraction of the scale seed).
	copy(ols, scale)
	x := stats.NewMatrix(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			x.Set(i, j, d.Metrics[i][j])
		}
	}
	if beta, _, err := stats.OLS(x, d.Efforts); err == nil {
		for j := 0; j < k; j++ {
			if beta[j] > 0 {
				ols[j] = math.Log(beta[j])
			} else {
				ols[j] = scale[j] - 4 // strongly down-weighted
			}
		}
	}
	return scale, ols
}

// startingPoints builds the optimizer seeds in φ-space: the log weight
// ratios log(w_k/w_1), k ≥ 2, followed for the mixed model by log λ.
// Each θ-space weight seed becomes θ_k − θ_1 and duplicates drop out in
// order. Only ratios matter because the overall scale is profiled, so
// the scale seed's ±2 shifts (every log-weight moved alike) are gone,
// and with one metric every weight seed is the empty ratio vector.
func startingPoints(d *Data, mixed bool) [][]float64 {
	ratios := [][]float64{{}}
	if k := d.NumMetrics(); k > 1 {
		scale, ols := weightSeeds(d)
		bases := [][]float64{scale, ols}
		if k == 2 {
			// Lopsided seeds matter for two-metric estimators like DEE1
			// where one metric may dominate.
			bases = append(bases,
				[]float64{scale[0] + 3, scale[1] - 3},
				[]float64{scale[0] - 3, scale[1] + 3})
		}
		ratios = ratios[:0]
		for _, theta := range bases {
			r := make([]float64, k-1)
			for j := range r {
				r[j] = theta[j+1] - theta[0]
			}
			if !slices.ContainsFunc(ratios, func(s []float64) bool { return slices.Equal(s, r) }) {
				ratios = append(ratios, r)
			}
		}
	}
	if !mixed {
		return ratios
	}
	logLambdas := [3]float64{math.Log(0.25), math.Log(1), math.Log(4)}
	starts := make([][]float64, 0, len(ratios)*len(logLambdas))
	for _, r := range ratios {
		for _, logLambda := range logLambdas {
			starts = append(starts, append(slices.Clip(r), logLambda))
		}
	}
	return starts
}

// SortedProductivities returns project names and ρ values sorted by
// project name, for deterministic reporting.
func (r *Result) SortedProductivities() (projects []string, rhos []float64) {
	for p := range r.Productivities {
		projects = append(projects, p)
	}
	sort.Strings(projects)
	rhos = make([]float64, len(projects))
	for i, p := range projects {
		rhos[i] = r.Productivities[p]
	}
	return projects, rhos
}
