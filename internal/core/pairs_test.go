package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
)

func TestEvaluatePairsReproducesSection511(t *testing.T) {
	pairs, err := EvaluatePairs(dataset.Paper())
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 55 { // C(11,2)
		t.Fatalf("pairs = %d, want 55", len(pairs))
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].SigmaEps < pairs[i-1].SigmaEps {
			t.Fatal("pairs not sorted by σε")
		}
	}
	// Section 5.1.1's robust claims (see EXPERIMENTS.md for the one
	// deviation: our exhaustive multi-start search also surfaces a few
	// PowerD-involving pairs with nominally lower σε, an 18-point
	// overfitting artifact the paper did not report):
	rank := map[string]int{}
	sigma := map[string]float64{}
	for i, p := range pairs {
		rank[p.Name()] = i
		sigma[p.Name()] = p.SigmaEps
	}
	get := func(a, b dataset.Metric) (int, float64) {
		if r, ok := rank[string(a)+"+"+string(b)]; ok {
			return r, sigma[string(a)+"+"+string(b)]
		}
		return rank[string(b)+"+"+string(a)], sigma[string(b)+"+"+string(a)]
	}
	// (1) The paper's two picks both beat every single-metric
	// estimator (best single: Stmts at 0.50) and sit in the top
	// quartile of all 55 pairs.
	for _, pick := range [][2]dataset.Metric{
		{dataset.Stmts, dataset.Nets},
		{dataset.Stmts, dataset.FanInLC},
	} {
		r, s := get(pick[0], pick[1])
		if s >= 0.50 {
			t.Errorf("%s+%s σε = %.3f, must beat the best single metric (0.50)", pick[0], pick[1], s)
		}
		if r >= len(pairs)/4 {
			t.Errorf("%s+%s ranked %d of %d, want top quartile", pick[0], pick[1], r+1, len(pairs))
		}
	}
	// (2) "combinations that include Stmts, LoC, FanInLC, and Nets
	// tend to have slightly more accuracy": every top-6 pair contains
	// at least one of the good metrics.
	good := []dataset.Metric{dataset.Stmts, dataset.LoC, dataset.FanInLC, dataset.Nets}
	for i := 0; i < 6; i++ {
		found := false
		for _, g := range good {
			if pairs[i].A == g || pairs[i].B == g {
				found = true
			}
		}
		if !found {
			t.Errorf("top pair %s contains no good metric", pairs[i].Name())
		}
	}
	// (3) By AIC among pairs drawn from the four good metrics,
	// Stmts+Nets is the winner (the paper preferred Stmts+FanInLC only
	// because its constituents are individually stronger).
	bestGoodAIC := math.Inf(1)
	bestGoodName := ""
	for _, p := range pairs {
		aGood, bGood := false, false
		for _, g := range good {
			if p.A == g {
				aGood = true
			}
			if p.B == g {
				bGood = true
			}
		}
		if aGood && bGood && p.AIC < bestGoodAIC {
			bestGoodAIC = p.AIC
			bestGoodName = p.Name()
		}
	}
	if bestGoodName != "Stmts+Nets" {
		t.Errorf("best good-metric pair by AIC = %s, paper names Stmts+Nets", bestGoodName)
	}
}

func TestPairAccuracyHelpers(t *testing.T) {
	p := PairAccuracy{A: dataset.Stmts, B: dataset.Nets}
	if p.Name() != "Stmts+Nets" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestUpdateProductivityHoldout(t *testing.T) {
	// Section 3.1.1 workflow: calibrate on three projects, then infer
	// the held-out project's ρ from its completed components and check
	// it against the full-data empirical-Bayes estimate.
	all := dataset.Paper()
	for _, holdout := range []string{"PUMA", "Leon3", "IVM"} {
		var train, held []dataset.Component
		for _, c := range all {
			if c.Project == holdout {
				held = append(held, c)
			} else {
				train = append(train, c)
			}
		}
		cal, err := Calibrate(train, DEE1Metrics, CalibrationOptions{Mixed: true})
		if err != nil {
			t.Fatalf("%s: %v", holdout, err)
		}
		rho, err := cal.UpdateProductivity(held)
		if err != nil {
			t.Fatalf("%s: %v", holdout, err)
		}
		// The inferred productivity must land on the correct side of 1
		// and the right ballpark versus the full fit.
		full, err := CalibrateDEE1(all)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := full.Productivity(holdout)
		if math.Abs(math.Log(rho)-math.Log(ref)) > math.Ln2 {
			t.Errorf("%s: holdout ρ = %.3f, full-fit ρ = %.3f (more than 2x apart)", holdout, rho, ref)
		}
	}
}

func TestUpdateProductivityConvergesWithMoreComponents(t *testing.T) {
	// More completed components → estimate closer to the full-data ρ
	// (successively better estimates, as §3.1.1 promises). Compare 1
	// vs all-7 IVM components.
	all := dataset.Paper()
	var train, ivm []dataset.Component
	for _, c := range all {
		if c.Project == "IVM" {
			ivm = append(ivm, c)
		} else {
			train = append(train, c)
		}
	}
	cal, err := Calibrate(train, DEE1Metrics, CalibrationOptions{Mixed: true})
	if err != nil {
		t.Fatal(err)
	}
	rho1, err := cal.UpdateProductivity(ivm[:1])
	if err != nil {
		t.Fatal(err)
	}
	rhoAll, err := cal.UpdateProductivity(ivm)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CalibrateDEE1(all)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := full.Productivity("IVM")
	d1 := math.Abs(math.Log(rho1) - math.Log(ref))
	dAll := math.Abs(math.Log(rhoAll) - math.Log(ref))
	if dAll > d1+0.05 {
		t.Errorf("estimate got worse with more data: 1-comp dist %.3f, 7-comp dist %.3f", d1, dAll)
	}
}

func TestUpdateProductivityErrors(t *testing.T) {
	cal, err := CalibrateDEE1(dataset.Paper())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cal.UpdateProductivity(nil); err == nil {
		t.Error("empty input must fail")
	}
	bad := []dataset.Component{{Project: "X", Name: "c", Effort: -1, Metrics: map[dataset.Metric]float64{dataset.Stmts: 10, dataset.FanInLC: 10}}}
	if _, err := cal.UpdateProductivity(bad); err == nil {
		t.Error("negative effort must fail")
	}
	fixed, err := Calibrate(dataset.Paper(), DEE1Metrics, CalibrationOptions{Mixed: false})
	if err != nil {
		t.Fatal(err)
	}
	ok := []dataset.Component{{Project: "X", Name: "c", Effort: 1, Metrics: map[dataset.Metric]float64{dataset.Stmts: 10, dataset.FanInLC: 10}}}
	if _, err := fixed.UpdateProductivity(ok); err == nil {
		t.Error("fixed-effects calibration must reject productivity updates")
	}
}

func TestThreeMetricCombinationsNotRecommended(t *testing.T) {
	// Section 5.1.1's closing observation: combinations of more than
	// two metrics buy at most a small σε improvement while their
	// information criteria degrade, so they are "not recommended
	// unless more data samples are considered".
	comps := dataset.Paper()
	dee1, err := Calibrate(comps, DEE1Metrics, CalibrationOptions{Mixed: true})
	if err != nil {
		t.Fatal(err)
	}
	triple, err := Calibrate(comps,
		[]dataset.Metric{dataset.Stmts, dataset.FanInLC, dataset.Nets},
		CalibrationOptions{Mixed: true})
	if err != nil {
		t.Fatal(err)
	}
	// σε improves at most marginally…
	if dee1.SigmaEps()-triple.SigmaEps() > 0.05 {
		t.Errorf("triple improves σε too much to support the claim: %.3f vs %.3f",
			triple.SigmaEps(), dee1.SigmaEps())
	}
	// …while the parameter penalty makes AIC and BIC worse.
	if triple.Fit.AIC() <= dee1.Fit.AIC() {
		t.Errorf("triple AIC %.1f should exceed DEE1's %.1f", triple.Fit.AIC(), dee1.Fit.AIC())
	}
	if triple.Fit.BIC() <= dee1.Fit.BIC() {
		t.Errorf("triple BIC %.1f should exceed DEE1's %.1f", triple.Fit.BIC(), dee1.Fit.BIC())
	}
}
