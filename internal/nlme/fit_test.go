package nlme

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// paperData assembles an nlme.Data over the given Table 3 metrics from
// the paper's 18 components. Zero metric values are replaced by 1,
// which is how the paper evidently handled the FFs = 0 rows (that floor
// reproduces its published σε of 2.14 exactly).
func paperData(metrics ...dataset.Metric) *Data {
	comps := dataset.Paper()
	d := &Data{}
	for _, c := range comps {
		row := make([]float64, len(metrics))
		for k, m := range metrics {
			row[k] = c.Metrics[m]
			if row[k] == 0 {
				row[k] = 1
			}
		}
		d.Groups = append(d.Groups, c.Project)
		d.Efforts = append(d.Efforts, c.Effort)
		d.Metrics = append(d.Metrics, row)
	}
	for _, m := range metrics {
		d.MetricNames = append(d.MetricNames, string(m))
	}
	return d
}

func TestFitReproducesTable4SigmaEps(t *testing.T) {
	// The headline reproduction: the mixed-effects σε of every
	// single-metric estimator must match Table 4 to the published
	// 2-decimal precision (±0.015 absolute tolerance).
	want := dataset.PaperSigmaEps()
	for _, m := range dataset.AllMetrics {
		r, err := Fit(paperData(m), FitOptions{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if diff := math.Abs(r.SigmaEps - want[string(m)]); diff > 0.015 {
			t.Errorf("%s: σε = %.3f, paper %.2f (diff %.3f)", m, r.SigmaEps, want[string(m)], diff)
		}
		if !r.Mixed {
			t.Errorf("%s: result not marked mixed", m)
		}
	}
}

func TestFitFixedReproducesTable4LastRow(t *testing.T) {
	want := dataset.PaperSigmaEpsNoRho()
	for _, m := range dataset.AllMetrics {
		r, err := FitFixed(paperData(m), FitOptions{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if diff := math.Abs(r.SigmaEps - want[string(m)]); diff > 0.015 {
			t.Errorf("%s: σε(ρ=1) = %.3f, paper %.2f (diff %.3f)", m, r.SigmaEps, want[string(m)], diff)
		}
		for p, rho := range r.Productivities {
			if rho != 1 {
				t.Errorf("%s: fixed fit productivity %s = %v, want 1", m, p, rho)
			}
		}
	}
}

func TestFitDEE1ReproducesPaper(t *testing.T) {
	d := paperData(dataset.Stmts, dataset.FanInLC)
	r, err := Fit(d, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(r.SigmaEps - 0.46); diff > 0.015 {
		t.Errorf("DEE1 σε = %.3f, paper 0.46", r.SigmaEps)
	}
	// Section 5.1.1: AIC 34.8, BIC 38.4 (ours: 34.9/38.4 — the paper
	// rounds AIC differently by ≤0.1).
	if math.Abs(r.AIC()-34.8) > 0.25 {
		t.Errorf("DEE1 AIC = %.2f, paper 34.8", r.AIC())
	}
	if math.Abs(r.BIC()-38.4) > 0.25 {
		t.Errorf("DEE1 BIC = %.2f, paper 38.4", r.BIC())
	}
	// Fixed-effects comparison value from Table 4's last row.
	rf, err := FitFixed(d, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(rf.SigmaEps - 0.53); diff > 0.015 {
		t.Errorf("DEE1 σε(ρ=1) = %.3f, paper 0.53", rf.SigmaEps)
	}
}

func TestFitStmtsAICBIC(t *testing.T) {
	// Section 5.1.1: "the AIC and BIC values of Stmts are 37.0 and
	// 39.7, respectively".
	r, err := Fit(paperData(dataset.Stmts), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.AIC()-37.0) > 0.2 {
		t.Errorf("Stmts AIC = %.2f, paper 37.0", r.AIC())
	}
	if math.Abs(r.BIC()-39.7) > 0.2 {
		t.Errorf("Stmts BIC = %.2f, paper 39.7", r.BIC())
	}
}

func TestDEE1ColumnMatchesPaper(t *testing.T) {
	// The per-component DEE1 estimates of Table 4 (with empirical-Bayes
	// productivities) — every one must match the published column to
	// ±0.15 person-months.
	d := paperData(dataset.Stmts, dataset.FanInLC)
	r, err := Fit(d, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := dataset.PaperDEE1Column()
	for _, c := range dataset.Paper() {
		est, err := r.Predict(
			[]float64{c.Metrics[dataset.Stmts], c.Metrics[dataset.FanInLC]},
			r.Productivities[c.Project])
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(est - want[c.Label()]); diff > 0.15 {
			t.Errorf("%s: DEE1 = %.2f, paper %.1f", c.Label(), est, want[c.Label()])
		}
	}
}

func TestFitLogLikConsistency(t *testing.T) {
	// The reported LogLik must equal the closed-form likelihood
	// re-evaluated at the fitted parameters.
	d := paperData(dataset.Stmts, dataset.FanInLC)
	r, err := Fit(d, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ll, err := LogLikelihood(d, r.Weights, r.SigmaEps, r.SigmaRho)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ll-r.LogLik) > 1e-6 {
		t.Errorf("LogLik = %v, re-evaluated %v", r.LogLik, ll)
	}
}

func TestFitRecoverySynthetic(t *testing.T) {
	// Generate data from a known model and verify parameter recovery.
	rng := rand.New(rand.NewSource(42))
	const (
		nGroups  = 12
		perGroup = 10
		wTrue    = 0.05
		seTrue   = 0.25
		srTrue   = 0.5
	)
	d := &Data{MetricNames: []string{"m"}}
	for g := 0; g < nGroups; g++ {
		b := rng.NormFloat64() * srTrue
		name := string(rune('A' + g))
		for j := 0; j < perGroup; j++ {
			m := 50 + rng.Float64()*2000
			logEff := b + math.Log(wTrue*m) + rng.NormFloat64()*seTrue
			d.Groups = append(d.Groups, name)
			d.Efforts = append(d.Efforts, math.Exp(logEff))
			d.Metrics = append(d.Metrics, []float64{m})
		}
	}
	r, err := Fit(d, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Weights[0]-wTrue)/wTrue > 0.25 {
		t.Errorf("w = %v, want ≈%v", r.Weights[0], wTrue)
	}
	if math.Abs(r.SigmaEps-seTrue) > 0.08 {
		t.Errorf("σε = %v, want ≈%v", r.SigmaEps, seTrue)
	}
	if math.Abs(r.SigmaRho-srTrue) > 0.25 {
		t.Errorf("σρ = %v, want ≈%v", r.SigmaRho, srTrue)
	}
}

func TestFitWeightScaleInvariance(t *testing.T) {
	// Scaling a metric column by c must scale its fitted weight by 1/c
	// and leave σε, σρ, and the log-likelihood unchanged.
	d1 := paperData(dataset.Stmts)
	d2 := paperData(dataset.Stmts)
	const c = 1000.0
	for i := range d2.Metrics {
		d2.Metrics[i][0] *= c
	}
	r1, err := Fit(d1, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Fit(d2, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Weights[0]/r2.Weights[0]-c)/c > 1e-3 {
		t.Errorf("weight ratio = %v, want %v", r1.Weights[0]/r2.Weights[0], c)
	}
	if math.Abs(r1.SigmaEps-r2.SigmaEps) > 1e-5 {
		t.Errorf("σε changed under rescaling: %v vs %v", r1.SigmaEps, r2.SigmaEps)
	}
	if math.Abs(r1.LogLik-r2.LogLik) > 1e-4 {
		t.Errorf("logLik changed under rescaling: %v vs %v", r1.LogLik, r2.LogLik)
	}
}

func TestFitNeedsTwoProjects(t *testing.T) {
	d := &Data{
		Groups:  []string{"A", "A", "A"},
		Efforts: []float64{1, 2, 3},
		Metrics: [][]float64{{10}, {20}, {30}},
	}
	if _, err := Fit(d, FitOptions{}); err == nil {
		t.Error("expected error for single-project mixed fit")
	}
	if _, err := FitFixed(d, FitOptions{}); err != nil {
		t.Errorf("FitFixed should handle a single project: %v", err)
	}
}

func TestFixedNeverBeatsMixed(t *testing.T) {
	// The mixed model nests the fixed model (σρ = 0), so its maximized
	// likelihood can never be lower and its σε can never be higher
	// (up to optimizer tolerance).
	for _, m := range []dataset.Metric{dataset.Stmts, dataset.Nets, dataset.Cells} {
		d := paperData(m)
		rm, err := Fit(d, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rf, err := FitFixed(d, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rm.LogLik < rf.LogLik-1e-6 {
			t.Errorf("%s: mixed logLik %v < fixed %v", m, rm.LogLik, rf.LogLik)
		}
		if rm.SigmaEps > rf.SigmaEps+1e-6 {
			t.Errorf("%s: mixed σε %v > fixed %v", m, rm.SigmaEps, rf.SigmaEps)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	r := &Result{Weights: []float64{1, 2}}
	if _, err := r.Predict([]float64{1}, 1); err == nil {
		t.Error("expected metric-count error")
	}
	for _, rho := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if v, err := r.Predict([]float64{1, 2}, rho); err == nil {
			t.Errorf("Predict(rho=%v) = %v, want a productivity error", rho, v)
		}
	}
	for _, m := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if v, err := r.Predict([]float64{m, 2}, 1); err == nil {
			t.Errorf("Predict(metric %v) = %v, want an invalid-metric error", m, v)
		}
	}
	v, err := r.Predict([]float64{3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != (1*3+2*4)/2.0 {
		t.Errorf("Predict = %v, want 5.5", v)
	}
}

func TestMeanFactorAndCI(t *testing.T) {
	r := &Result{SigmaEps: 0.46, SigmaRho: 0.3}
	want := math.Exp((0.46*0.46 + 0.3*0.3) / 2)
	if math.Abs(r.MeanFactor()-want) > 1e-12 {
		t.Errorf("MeanFactor = %v, want %v", r.MeanFactor(), want)
	}
	lo, hi := r.ConfidenceInterval(10, 0.90)
	// σε=0.46 ⇒ 90% factors ≈ (0.47, 2.13) per Section 5.1.1.
	if lo < 4.5 || lo > 4.9 {
		t.Errorf("CI lo = %v, want ≈4.7", lo)
	}
	if hi < 20.8 || hi > 21.8 {
		t.Errorf("CI hi = %v, want ≈21.3", hi)
	}
}

func TestProductivitiesCenterNearOne(t *testing.T) {
	// With µ=0 random effects, the fitted ρ_i cluster around 1 (their
	// median). All paper-team values fall well inside (0.5, 2).
	r, err := Fit(paperData(dataset.Stmts, dataset.FanInLC), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	projects, rhos := r.SortedProductivities()
	if len(projects) != 4 {
		t.Fatalf("got %d projects", len(projects))
	}
	for i, p := range projects {
		if rhos[i] < 0.5 || rhos[i] > 2 {
			t.Errorf("ρ(%s) = %v, outside (0.5, 2)", p, rhos[i])
		}
	}
}

// TestStartingPointCounts pins the seed sets over weight ratios and λ:
// the scale seed's ±2 shifts collapse onto it, DEE1 keeps four ratio
// seeds, and a single metric has none to search.
func TestStartingPointCounts(t *testing.T) {
	for _, c := range []struct {
		metrics []dataset.Metric
		mixed   bool
		n, dim  int
	}{
		{[]dataset.Metric{dataset.Stmts, dataset.FanInLC}, true, 12, 2},
		{[]dataset.Metric{dataset.Stmts, dataset.FanInLC}, false, 4, 1},
		{[]dataset.Metric{dataset.Stmts}, true, 3, 1},
		{[]dataset.Metric{dataset.Stmts}, false, 1, 0},
		{[]dataset.Metric{dataset.Stmts, dataset.FanInLC, dataset.Nets}, true, 6, 3},
	} {
		starts := startingPoints(paperData(c.metrics...), c.mixed)
		if len(starts) != c.n {
			t.Errorf("%v mixed=%v: %d starts, want %d", c.metrics, c.mixed, len(starts), c.n)
		}
		for _, s := range starts {
			if len(s) != c.dim {
				t.Errorf("%v mixed=%v: start %v has dimension %d, want %d", c.metrics, c.mixed, s, len(s), c.dim)
			}
		}
	}
}

func TestFitRejectsInvalidData(t *testing.T) {
	d := validData()
	d.Efforts[0] = -1
	if _, err := Fit(d, FitOptions{}); err == nil {
		t.Error("Fit must validate")
	}
	if _, err := FitFixed(d, FitOptions{}); err == nil {
		t.Error("FitFixed must validate")
	}
}
