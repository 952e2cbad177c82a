package nlme

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// synthData generates a dataset from the model itself: nGroups
// projects with lognormal productivities, perGroup components each,
// with true weights wTrue over k metrics and multiplicative error
// sigmaEps.
func synthData(rng *rand.Rand, nGroups, perGroup int, wTrue []float64, sigmaEps, sigmaRho float64) *Data {
	d := &Data{}
	for g := 0; g < nGroups; g++ {
		b := rng.NormFloat64() * sigmaRho
		name := "team" + string(rune('A'+g))
		for j := 0; j < perGroup; j++ {
			row := make([]float64, len(wTrue))
			var eta float64
			for k := range wTrue {
				row[k] = 20 + rng.Float64()*3000
				eta += wTrue[k] * row[k]
			}
			logEff := b + math.Log(eta) + rng.NormFloat64()*sigmaEps
			d.Groups = append(d.Groups, name)
			d.Efforts = append(d.Efforts, math.Exp(logEff))
			d.Metrics = append(d.Metrics, row)
		}
	}
	return d
}

// TestSweepSigmaEpsRecovery sweeps the true error SD and checks that
// the ML estimate tracks it across the grid (the workload-generator
// validation of the statistical substrate).
func TestSweepSigmaEpsRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(2005))
	for _, trueSigma := range []float64{0.2, 0.5, 0.9} {
		var estimates []float64
		for rep := 0; rep < 6; rep++ {
			d := synthData(rng, 8, 12, []float64{0.01}, trueSigma, 0.4)
			r, err := Fit(d, FitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			estimates = append(estimates, r.SigmaEps)
		}
		mean := stats.Mean(estimates)
		if math.Abs(mean-trueSigma) > 0.12*trueSigma+0.04 {
			t.Errorf("true σε=%.2f: mean estimate %.3f across reps", trueSigma, mean)
		}
	}
}

// TestSweepSigmaRhoRecovery sweeps the productivity spread.
func TestSweepSigmaRhoRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, trueRho := range []float64{0.3, 0.7} {
		var estimates []float64
		for rep := 0; rep < 6; rep++ {
			d := synthData(rng, 12, 8, []float64{0.02}, 0.3, trueRho)
			r, err := Fit(d, FitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			estimates = append(estimates, r.SigmaRho)
		}
		mean := stats.Mean(estimates)
		if math.Abs(mean-trueRho) > 0.3*trueRho {
			t.Errorf("true σρ=%.2f: mean estimate %.3f", trueRho, mean)
		}
	}
}

// TestConfidenceIntervalCoverage validates the headline claim behind
// Figures 3/4: the σε-derived 90% interval must cover ~90% of actual
// efforts (and the 68% interval ~68%) on data drawn from the model.
func TestConfidenceIntervalCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const reps = 40
	hits90, hits68, total := 0, 0, 0
	for rep := 0; rep < reps; rep++ {
		d := synthData(rng, 6, 8, []float64{0.01}, 0.45, 0.4)
		r, err := Fit(d, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Evaluate coverage in-sample with the fitted productivities
		// (the paper's estimation setting).
		for i := range d.Efforts {
			rho := r.Productivities[d.Groups[i]]
			pred, err := r.Predict(d.Metrics[i], rho)
			if err != nil {
				t.Fatal(err)
			}
			lo90, hi90 := r.ConfidenceInterval(pred, 0.90)
			lo68, hi68 := r.ConfidenceInterval(pred, 0.68)
			if d.Efforts[i] >= lo90 && d.Efforts[i] <= hi90 {
				hits90++
			}
			if d.Efforts[i] >= lo68 && d.Efforts[i] <= hi68 {
				hits68++
			}
			total++
		}
	}
	cov90 := float64(hits90) / float64(total)
	cov68 := float64(hits68) / float64(total)
	if cov90 < 0.85 || cov90 > 0.95 {
		t.Errorf("90%% interval covers %.1f%%", cov90*100)
	}
	if cov68 < 0.62 || cov68 > 0.74 {
		t.Errorf("68%% interval covers %.1f%%", cov68*100)
	}
}

// TestSweepSampleSizePrecision confirms §3.1.1's guidance that "using
// a large number of data points lends precision": the spread of σε
// estimates shrinks as the database grows.
func TestSweepSampleSizePrecision(t *testing.T) {
	spread := func(perGroup int, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		var ests []float64
		for rep := 0; rep < 8; rep++ {
			d := synthData(rng, 6, perGroup, []float64{0.01}, 0.5, 0.3)
			r, err := Fit(d, FitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ests = append(ests, r.SigmaEps)
		}
		m := stats.Mean(ests)
		var ss float64
		for _, e := range ests {
			ss += (e - m) * (e - m)
		}
		return math.Sqrt(ss / float64(len(ests)-1)) // sample standard deviation
	}
	small := spread(4, 5)
	large := spread(40, 6)
	if large >= small {
		t.Errorf("estimate spread must shrink with data: n=4 %.4f vs n=40 %.4f", small, large)
	}
}

// TestEquation4MeanCorrection validates Equation 4 empirically: the
// mean of simulated efforts around a fixed prediction equals the
// median times e^{(σε²+σρ²)/2}.
func TestEquation4MeanCorrection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const (
		se     = 0.46
		sr     = 0.30
		median = 10.0
		n      = 400000
	)
	var sum float64
	for i := 0; i < n; i++ {
		b := rng.NormFloat64() * sr
		e := rng.NormFloat64() * se
		sum += median * math.Exp(b+e)
	}
	gotMean := sum / n
	wantMean := median * math.Exp((se*se+sr*sr)/2)
	if math.Abs(gotMean-wantMean)/wantMean > 0.02 {
		t.Errorf("simulated mean %.3f, Equation 4 predicts %.3f", gotMean, wantMean)
	}
}
