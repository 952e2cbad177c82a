// Command ucfit calibrates a design-effort estimator from a
// measurement database (CSV as produced by ucmetrics -csv, or the
// paper's embedded dataset).
//
// Usage:
//
//	ucfit -paper                        fit on the paper's 18 data points
//	ucfit -db measurements.csv          fit on your own database
//
// Flags:
//
//	-metrics Stmts,FanInLC   metric columns of the estimator (default DEE1's)
//	-fixed                   fit the ρ=1 fixed-effects model (Section 3.2)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

func main() {
	usePaper := flag.Bool("paper", false, "fit on the paper's embedded dataset")
	dbPath := flag.String("db", "", "CSV measurement database")
	metricsFlag := flag.String("metrics", "Stmts,FanInLC", "comma-separated metric columns")
	fixed := flag.Bool("fixed", false, "fit without productivity adjustment (rho=1)")
	flag.Parse()

	if err := run(*usePaper, *dbPath, *metricsFlag, *fixed); err != nil {
		fmt.Fprintln(os.Stderr, "ucfit:", err)
		os.Exit(1)
	}
}

func run(usePaper bool, dbPath, metricsFlag string, fixed bool) error {
	var comps []dataset.Component
	switch {
	case usePaper:
		comps = dataset.Paper()
	case dbPath != "":
		f, err := os.Open(dbPath)
		if err != nil {
			return err
		}
		defer f.Close()
		comps, err = dataset.ReadCSV(f)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -paper or -db <file>")
	}

	var metrics []dataset.Metric
	for _, m := range strings.Split(metricsFlag, ",") {
		m = strings.TrimSpace(m)
		if m != "" {
			metrics = append(metrics, dataset.Metric(m))
		}
	}
	cal, err := core.Calibrate(comps, metrics, core.CalibrationOptions{Mixed: !fixed})
	if err != nil {
		return err
	}

	fmt.Printf("fitted on %d components from %d projects\n", len(comps), len(dataset.Projects(comps)))
	fmt.Printf("model: eff = (1/rho) * (")
	for k, m := range metrics {
		if k > 0 {
			fmt.Printf(" + ")
		}
		fmt.Printf("%.6g*%s", cal.Fit.Weights[k], m)
	}
	fmt.Printf(")\n")
	fmt.Printf("sigma_eps = %.3f", cal.Fit.SigmaEps)
	lo, hi := stats.ConfidenceFactors(cal.Fit.SigmaEps, 0.90)
	fmt.Printf("  (90%% CI factors: %.2fx .. %.2fx)\n", lo, hi)
	if !fixed {
		fmt.Printf("sigma_rho = %.3f\n", cal.Fit.SigmaRho)
		projects, rhos := cal.Fit.SortedProductivities()
		for i, p := range projects {
			fmt.Printf("  rho(%s) = %.3f\n", p, rhos[i])
		}
	}
	fmt.Printf("logLik = %.2f  AIC = %.1f  BIC = %.1f\n", cal.Fit.LogLik, cal.Fit.AIC(), cal.Fit.BIC())
	return nil
}
