// Package paper regenerates every table and figure of the µComplexity
// paper's evaluation from this reproduction's own machinery: the
// embedded dataset, the mixed-effects fitter, and (for Figure 6) the
// synthetic design corpus measured through the full synthesis
// pipeline. Each experiment returns both structured results (consumed
// by tests and EXPERIMENTS.md) and a formatted text rendering.
package paper

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Table1 renders the design-characteristics table.
func Table1() string {
	t := &table{header: []string{"Characteristic", "Leon3", "PUMA", "IVM"}}
	for _, r := range dataset.Table1() {
		t.add(r.Characteristic, r.Leon3, r.PUMA, r.IVM)
	}
	return "Table 1: Characteristics of the processor designs.\n\n" + t.String()
}

// Table2 renders the reported design efforts.
func Table2() string {
	t := &table{header: []string{"Component", "Effort (person-months)"}}
	for _, c := range dataset.Paper() {
		t.add(c.Label(), trimF(c.Effort))
	}
	return "Table 2: Reported design effort.\n\n" + t.String()
}

func trimF(v float64) string {
	s := fmt.Sprintf("%.1f", v)
	return strings.TrimSuffix(s, ".0")
}

// Table3 renders the metric definitions with our substitute tools.
func Table3() string {
	t := &table{header: []string{"Metric", "Description", "Tool (reproduction)"}}
	for _, r := range dataset.Table3() {
		t.add(string(r.Metric), r.Description, r.Tool)
	}
	return "Table 3: Metrics gathered for each component.\n\n" + t.String()
}

// Table4Row is one estimator's accuracy in the Table 4 reproduction.
type Table4Row struct {
	Name              string
	SigmaEps          float64
	SigmaEpsPaper     float64
	SigmaEpsRho1      float64
	SigmaEpsRho1Paper float64
}

// Table4Result is the full Table 4 reproduction.
type Table4Result struct {
	// Components lists each data point with its reported effort and
	// fitted DEE1 estimate (the table's DEE1 column).
	Components []Table4Component
	Rows       []Table4Row
	// MaxAbsDiff is the largest |σε − σε_paper| across both model
	// variants and all estimators.
	MaxAbsDiff float64
}

// Table4Component pairs a component with its DEE1 estimate.
type Table4Component struct {
	Label     string
	Effort    float64
	DEE1      float64
	DEE1Paper float64
}

// Table4N refits every estimator of Table 4 on the paper's dataset and
// compares σε (both with productivity adjustment and with ρ=1) against
// the published values. The 12 estimators (both model variants) are
// fitted on a pool of the given concurrency (0 = GOMAXPROCS,
// 1 = exact sequential path). The result is bit-identical for every
// value.
func Table4N(concurrency int) (*Table4Result, error) {
	comps := dataset.Paper()
	rows, err := core.EvaluateEstimatorsN(comps, concurrency)
	if err != nil {
		return nil, err
	}
	res := &Table4Result{}
	paperSE := dataset.PaperSigmaEps()
	paperSE1 := dataset.PaperSigmaEpsNoRho()
	for _, r := range rows {
		row := Table4Row{
			Name:              r.Name,
			SigmaEps:          r.SigmaEps,
			SigmaEpsPaper:     paperSE[r.Name],
			SigmaEpsRho1:      r.SigmaEpsRho1,
			SigmaEpsRho1Paper: paperSE1[r.Name],
		}
		res.Rows = append(res.Rows, row)
		for _, d := range []float64{
			math.Abs(row.SigmaEps - row.SigmaEpsPaper),
			math.Abs(row.SigmaEpsRho1 - row.SigmaEpsRho1Paper),
		} {
			if d > res.MaxAbsDiff {
				res.MaxAbsDiff = d
			}
		}
	}
	// DEE1 per-component column, reusing the calibration the estimator
	// evaluation above already fitted instead of refitting it.
	var cal *core.Calibration
	for _, r := range rows {
		if r.Name == "DEE1" {
			cal = r.Calibration
			break
		}
	}
	if cal == nil {
		return nil, fmt.Errorf("paper: estimator evaluation returned no DEE1 row")
	}
	paperDEE1 := dataset.PaperDEE1Column()
	for _, c := range comps {
		rho, _ := cal.Productivity(c.Project)
		est, err := cal.EstimateFromValues(
			[]float64{c.Metrics[dataset.Stmts], c.Metrics[dataset.FanInLC]}, rho)
		if err != nil {
			return nil, err
		}
		res.Components = append(res.Components, Table4Component{
			Label:     c.Label(),
			Effort:    c.Effort,
			DEE1:      est.Median,
			DEE1Paper: paperDEE1[c.Label()],
		})
	}
	return res, nil
}

// String renders the Table 4 reproduction.
func (r *Table4Result) String() string {
	var b strings.Builder
	b.WriteString("Table 4: Accuracy of various design effort estimators.\n\n")
	ct := &table{header: []string{"Component", "Effort", "DEE1", "DEE1(paper)"}}
	for _, c := range r.Components {
		ct.add(c.Label, trimF(c.Effort), f1(c.DEE1), f1(c.DEE1Paper))
	}
	b.WriteString(ct.String())
	b.WriteString("\n")
	st := &table{header: []string{"Estimator", "sigma_eps", "paper", "sigma_eps(rho=1)", "paper(rho=1)"}}
	for _, row := range r.Rows {
		st.add(row.Name, f2(row.SigmaEps), f2(row.SigmaEpsPaper), f2(row.SigmaEpsRho1), f2(row.SigmaEpsRho1Paper))
	}
	b.WriteString(st.String())
	fmt.Fprintf(&b, "\nmax |sigma_eps - paper| across all cells: %.3f\n", r.MaxAbsDiff)
	return b.String()
}

// AICBICResult compares the information criteria of Section 5.1.1.
type AICBICResult struct {
	DEE1AIC, DEE1BIC   float64
	StmtsAIC, StmtsBIC float64
}

// AICBICN reproduces the DEE1-vs-Stmts model comparison of Section
// 5.1.1 (paper values: DEE1 34.8/38.4, Stmts 37.0/39.7). The two fits
// run one after the other, each on a multi-start pool of the given
// concurrency (0 = GOMAXPROCS, 1 = exact sequential path).
func AICBICN(concurrency int) (*AICBICResult, error) {
	comps := dataset.Paper()
	opts := core.CalibrationOptions{Mixed: true, Concurrency: concurrency}
	dee1, err := core.Calibrate(comps, core.DEE1Metrics, opts)
	if err != nil {
		return nil, err
	}
	stmts, err := core.Calibrate(comps, []dataset.Metric{dataset.Stmts}, opts)
	if err != nil {
		return nil, err
	}
	return &AICBICResult{
		DEE1AIC:  dee1.Fit.AIC(),
		DEE1BIC:  dee1.Fit.BIC(),
		StmtsAIC: stmts.Fit.AIC(),
		StmtsBIC: stmts.Fit.BIC(),
	}, nil
}

// String renders the comparison.
func (r *AICBICResult) String() string {
	t := &table{header: []string{"Model", "AIC", "paper AIC", "BIC", "paper BIC"}}
	t.add("DEE1 (Stmts+FanInLC)", f1(r.DEE1AIC), "34.8", f1(r.DEE1BIC), "38.4")
	t.add("Stmts", f1(r.StmtsAIC), "37.0", f1(r.StmtsBIC), "39.7")
	return "Section 5.1.1: model comparison by information criteria (lower is better).\n\n" + t.String()
}

// sortedEstimatorNames returns the estimator names in the paper's
// Table 4 column order.
func sortedEstimatorNames() []string {
	names := []string{"DEE1"}
	for _, m := range dataset.AllMetrics {
		names = append(names, string(m))
	}
	return names
}
