// Calibrate: the full Section 5 analysis on the paper's dataset —
// every estimator fitted with and without the productivity
// adjustment, productivities per team, and confidence intervals.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

func main() {
	comps := dataset.Paper()
	fmt.Printf("measurement database: %d components, %d projects\n\n",
		len(comps), len(dataset.Projects(comps)))

	// Rank every estimator, as Table 4 does.
	rows, err := core.EvaluateEstimatorsN(comps, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("estimator ranking (lower sigma_eps = tighter confidence interval):")
	fmt.Printf("  %-8s  %9s  %9s  %14s\n", "name", "sigma_eps", "rho=1", "90% CI factors")
	for _, r := range rows {
		lo, hi := stats.ConfidenceFactors(r.SigmaEps, 0.90)
		fmt.Printf("  %-8s  %9.2f  %9.2f  (%.2fx, %.2fx)\n",
			r.Name, r.SigmaEps, r.SigmaEpsRho1, lo, hi)
	}

	// The recommended estimator in detail.
	dee1, err := core.CalibrateDEE1(comps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDEE1 = (1/rho) * (%.4g*Stmts + %.4g*FanInLC)\n",
		dee1.Fit.Weights[0], dee1.Fit.Weights[1])
	fmt.Printf("sigma_eps=%.3f sigma_rho=%.3f AIC=%.1f BIC=%.1f\n",
		dee1.Fit.SigmaEps, dee1.Fit.SigmaRho, dee1.Fit.AIC(), dee1.Fit.BIC())

	fmt.Println("\nempirical-Bayes team productivities (median-1 lognormal):")
	projects, rhos := dee1.Fit.SortedProductivities()
	for i, p := range projects {
		fmt.Printf("  rho(%-5s) = %.3f\n", p, rhos[i])
	}

	// Per-component predictions vs reported efforts (Figure 5's data).
	fmt.Println("\nper-component DEE1 estimates vs reported effort:")
	for _, c := range comps {
		rho, _ := dee1.Productivity(c.Project)
		est, err := dee1.EstimateFromValues(
			[]float64{c.Metrics[dataset.Stmts], c.Metrics[dataset.FanInLC]}, rho)
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if c.Effort < est.CI90[0] || c.Effort > est.CI90[1] {
			marker = "  <- outside 90% CI"
		}
		fmt.Printf("  %-16s estimate %5.1f  reported %5.1f%s\n",
			c.Label(), est.Median, c.Effort, marker)
	}
}
