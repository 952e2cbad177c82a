package paper

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// Figure2 renders the lognormal distribution of Figure 2: µ = 0, σ
// chosen so the mean is 1.16 (the value annotated in the paper),
// marking mode, median, and mean.
func Figure2() string {
	sigma := math.Sqrt(2 * math.Log(1.16))
	l := stats.NewLognormal(0, sigma)
	p := newASCIIPlot(
		fmt.Sprintf("Figure 2: lognormal distribution with mu=0 (sigma=%.3f)", sigma),
		"rho", "P(rho)", 0, 2.5, 0, 1.0)
	p.curve(l.PDF, '*')
	p.vline(l.Mode(), ':')
	p.vline(l.Median(), '|')
	p.vline(l.Mean(), '.')
	return p.String() + fmt.Sprintf(
		"mode=%.2f (:)  median=%.2f (|)  mean=%.2f (.)  [paper annotates 0.75, 1, 1.16]\n",
		l.Mode(), l.Median(), l.Mean())
}

// Figure3 renders the 68% and 90% confidence-factor curves of Figure 3
// over σε ∈ [0, 0.7], with the σε = 0.45 worked example.
func Figure3() string {
	p := newASCIIPlot(
		"Figure 3: 68% and 90% confidence intervals vs sigma_eps",
		"sigma_eps", "multiplicative factor", 0, 0.7, 0, 3.5)
	p.curve(func(s float64) float64 {
		if s <= 0 {
			return 1
		}
		_, hi := stats.ConfidenceFactors(s, 0.90)
		return hi
	}, '9')
	p.curve(func(s float64) float64 {
		if s <= 0 {
			return 1
		}
		lo, _ := stats.ConfidenceFactors(s, 0.90)
		return lo
	}, '9')
	p.curve(func(s float64) float64 {
		if s <= 0 {
			return 1
		}
		_, hi := stats.ConfidenceFactors(s, 0.68)
		return hi
	}, '6')
	p.curve(func(s float64) float64 {
		if s <= 0 {
			return 1
		}
		lo, _ := stats.ConfidenceFactors(s, 0.68)
		return lo
	}, '6')
	p.vline(0.45, ':')
	lo, hi := stats.ConfidenceFactors(0.45, 0.90)
	return p.String() + fmt.Sprintf(
		"worked example at sigma_eps=0.45: yl=%.2f yh=%.2f (paper: ~0.5, ~2.1)\n", lo, hi)
}

// Figure4Result is the Figure 4 reproduction: the σε → 90% CI mapping
// annotated with each fitted estimator's position.
type Figure4Result struct {
	Positions map[string]float64 // estimator → fitted σε
	Plot      string
}

// Figure4N fits the Table 4 estimators and marks them on the 90%
// confidence-factor chart, as the paper does for Stmts, LoC&FanInLC,
// Nets, and DEE1. The fits run on a pool of the given concurrency
// (0 = GOMAXPROCS, 1 = exact sequential path).
func Figure4N(concurrency int) (*Figure4Result, error) {
	rows, err := core.EvaluateEstimatorsN(dataset.Paper(), concurrency)
	if err != nil {
		return nil, err
	}
	pos := map[string]float64{}
	for _, r := range rows {
		pos[r.Name] = r.SigmaEps
	}
	p := newASCIIPlot(
		"Figure 4: sigma_eps vs 90% confidence factors, with fitted estimators",
		"sigma_eps", "multiplicative factor", 0.4, 0.7, 0, 3.5)
	p.curve(func(s float64) float64 {
		_, hi := stats.ConfidenceFactors(s, 0.90)
		return hi
	}, '*')
	p.curve(func(s float64) float64 {
		lo, _ := stats.ConfidenceFactors(s, 0.90)
		return lo
	}, '*')
	for _, name := range []string{"DEE1", "Stmts", "LoC", "FanInLC", "Nets"} {
		if s, ok := pos[name]; ok && s >= 0.4 && s <= 0.7 {
			p.vline(s, name[0])
		}
	}
	var b strings.Builder
	b.WriteString(p.String())
	b.WriteString("estimator positions (σε): ")
	for _, name := range []string{"DEE1", "Stmts", "LoC", "FanInLC", "Nets"} {
		fmt.Fprintf(&b, "%s=%.2f  ", name, pos[name])
	}
	b.WriteString("\n")
	return &Figure4Result{Positions: pos, Plot: b.String()}, nil
}

// Figure5Result is the DEE1-vs-reported-effort scatter of Figure 5.
type Figure5Result struct {
	Points []Table4Component
	// Correlation is the Pearson correlation between DEE1 estimates
	// and reported efforts.
	Correlation float64
	// Leon3PipelineUnderestimated records the paper's highlighted
	// outlier: the Leon3 pipeline's estimate (12.8) is roughly half
	// the reported 24 person-months.
	Leon3PipelineUnderestimated bool
	Plot                        string
}

// Figure5N reproduces the scatter plot of DEE1 estimations versus
// reported design effort. The underlying Table 4 fits run on a pool of
// the given concurrency (0 = GOMAXPROCS, 1 = exact sequential path).
func Figure5N(concurrency int) (*Figure5Result, error) {
	t4, err := Table4N(concurrency)
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{Points: t4.Components}
	var xs, ys []float64
	p := newASCIIPlot(
		"Figure 5: scatter of DEE1 estimations vs reported design effort",
		"DEE1 estimate (person-months)", "reported effort", 0, 14, 0, 25)
	markers := map[string]byte{"Leon3": 'L', "PUMA": 'P', "IVM": 'I', "RAT": 'R'}
	for _, pt := range t4.Components {
		project := strings.SplitN(pt.Label, "-", 2)[0]
		p.point(pt.DEE1, pt.Effort, markers[project])
		xs = append(xs, pt.DEE1)
		ys = append(ys, pt.Effort)
		if pt.Label == "Leon3-Pipeline" {
			res.Leon3PipelineUnderestimated = pt.DEE1 < pt.Effort*0.65
		}
	}
	p.curve(func(x float64) float64 { return x }, '/') // the y = x diagonal
	res.Correlation = stats.Correlation(xs, ys)
	res.Plot = p.String() + fmt.Sprintf(
		"markers: L=Leon3 P=PUMA I=IVM R=RAT, / is y=x; Pearson r=%.3f\n", res.Correlation)
	return res, nil
}
