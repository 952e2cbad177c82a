package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
)

// PairAccuracy is one two-metric estimator candidate.
type PairAccuracy struct {
	A, B     dataset.Metric
	SigmaEps float64
	AIC      float64
}

// EvaluatePairs fits every two-metric combination from Table 3 on the
// database and returns them sorted by σε. This reproduces the search
// of Section 5.1.1, whose result is that "two-metric combinations that
// include Stmts, LoC, FanInLC, and Nets tend to have slightly more
// accuracy than those with a single metric", with Stmts+Nets and
// Stmts+FanInLC the most accurate — the latter chosen as DEE1 because
// its constituents are individually stronger.
func EvaluatePairs(comps []dataset.Component) ([]PairAccuracy, error) {
	metrics := dataset.AllMetrics
	var out []PairAccuracy
	for i := 0; i < len(metrics); i++ {
		for j := i + 1; j < len(metrics); j++ {
			cal, err := Calibrate(comps, []dataset.Metric{metrics[i], metrics[j]}, CalibrationOptions{Mixed: true})
			if err != nil {
				return nil, fmt.Errorf("core: pair %s+%s: %w", metrics[i], metrics[j], err)
			}
			out = append(out, PairAccuracy{
				A:        metrics[i],
				B:        metrics[j],
				SigmaEps: cal.SigmaEps(),
				AIC:      cal.Fit.AIC(),
			})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SigmaEps < out[b].SigmaEps })
	return out, nil
}

// Name formats the pair as "A+B".
func (p PairAccuracy) Name() string { return string(p.A) + "+" + string(p.B) }

// UpdateProductivity implements the Section 3.1.1 workflow: "as some
// components in the current project are completely verified, we can
// re-calibrate the model and obtain successively better estimates of
// the current ρ. Such ρ can be used to estimate the design effort for
// the remaining components of the design."
//
// Given a calibration fitted on historical projects and measurements
// of the new project's completed components (with their actual
// efforts), it returns the empirical-Bayes productivity of the new
// team under the fitted weights and variance components:
//
//	ρ̂ = exp(−σρ²·Σ_j r_j / (σε² + n·σρ²)),  r_j = log Eff_j − log eff_j
func (c *Calibration) UpdateProductivity(completed []dataset.Component) (float64, error) {
	if len(completed) == 0 {
		return 1, fmt.Errorf("core: no completed components to estimate productivity from")
	}
	se2 := c.Fit.SigmaEps * c.Fit.SigmaEps
	sr2 := c.Fit.SigmaRho * c.Fit.SigmaRho
	if sr2 == 0 {
		return 1, fmt.Errorf("core: the calibration has no productivity variance (fixed-effects model?)")
	}
	var sum float64
	for _, comp := range completed {
		if comp.Effort <= 0 {
			return 1, fmt.Errorf("core: component %s has non-positive effort", comp.Label())
		}
		row := make([]float64, len(c.Metrics))
		for k, m := range c.Metrics {
			v, err := comp.Metric(m)
			if err != nil {
				return 1, err
			}
			row[k] = v
		}
		floorZeros(row, c.ZeroFloor)
		pred, err := c.Fit.Predict(row, 1)
		if err != nil {
			return 1, err
		}
		if pred <= 0 {
			return 1, fmt.Errorf("core: component %s has non-positive prediction", comp.Label())
		}
		sum += logRatio(comp.Effort, pred)
	}
	n := float64(len(completed))
	b := sr2 * sum / (se2 + n*sr2)
	return expNeg(b), nil
}

func logRatio(actual, predicted float64) float64 {
	return math.Log(actual) - math.Log(predicted)
}

func expNeg(b float64) float64 { return math.Exp(-b) }
