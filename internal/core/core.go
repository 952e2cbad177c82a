// Package core is the public façade of the µComplexity methodology —
// the paper's primary contribution. It ties the three parts of
// Section 2 together:
//
//  1. the accounting procedure (internal/measure) that measures a
//     design's components — each reused module once, parameters
//     minimized;
//  2. the nonlinear mixed-effects regression (internal/nlme) that
//     calibrates design-effort estimators from a measurement database;
//  3. the productivity adjustment ρ that scales a calibrated
//     estimator to a particular team.
//
// The typical flow mirrors Section 3.1.1 of the paper: maintain a
// database of component measurements with reported efforts
// (dataset.Component), Calibrate an estimator on it, then Estimate the
// effort of new components — absolutely if the team's ρ is known, or
// relatively with ρ = 1.
package core

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/nlme"
)

// DEE1Metrics is the metric pair of Design Effort Estimator 1
// (Section 5.1.1): HDL statements plus logic-cone fan-ins, the most
// accurate two-metric combination the paper found.
var DEE1Metrics = []dataset.Metric{dataset.Stmts, dataset.FanInLC}

// Measurement is one measured component ready for the database.
type Measurement struct {
	Project string
	Name    string
	Metrics *measure.Metrics
	// Accounting describes how the measurement was taken.
	Accounting *measure.ComponentResult
}

// MeasureComponent measures one component of a µHDL design using the
// full µComplexity accounting procedure (Section 2.2). Set
// useAccounting to false only for methodological comparisons like
// Figure 6 of the paper.
func MeasureComponent(design *hdl.Design, project, top string, useAccounting bool, opts measure.Options) (*Measurement, error) {
	res, err := measure.MeasureComponent(design, top, useAccounting, opts)
	if err != nil {
		return nil, err
	}
	return &Measurement{Project: project, Name: top, Metrics: res.Metrics, Accounting: res}, nil
}

// Calibration is a fitted design-effort estimator.
type Calibration struct {
	// Metrics are the metric columns of the estimator, in weight
	// order.
	Metrics []dataset.Metric
	// Fit is the underlying regression result (weights, σε, σρ,
	// productivities, information criteria).
	Fit *nlme.Result
	// ZeroFloor records the value zero metric entries were replaced
	// with (the lognormal model needs positive predictors); 0 if no
	// flooring was needed.
	ZeroFloor float64
}

// CalibrationOptions configures Calibrate.
type CalibrationOptions struct {
	// Mixed selects the nonlinear mixed-effects model with per-project
	// productivities (the paper's recommended model). When false the
	// simpler ρ=1 fixed-effects model of Section 3.2 is fitted.
	Mixed bool
	// Concurrency bounds the worker pool of the fit's multi-start
	// restarts: 0 means GOMAXPROCS, 1 forces the exact sequential
	// path. Calibration results are bit-identical for every value.
	Concurrency int
}

// Calibrate fits Equation 1's weights (and, for the mixed model, the
// productivity distribution) for the given metric set on a measurement
// database.
func Calibrate(comps []dataset.Component, metrics []dataset.Metric, opts CalibrationOptions) (*Calibration, error) {
	d, floor, err := assemble(comps, metrics)
	if err != nil {
		return nil, err
	}
	return calibrate(d, metrics, floor, opts)
}

// zeroFloor replaces zero metric values in a regression table: the
// lognormal model needs positive predictors, and 1 reproduces the
// paper's FFs row exactly.
const zeroFloor = 1

// floorZeros replaces the zero entries of row with floor, when floor
// is positive, and reports whether it replaced any. Calibration and
// every estimate path floor their metric rows through it.
func floorZeros(row []float64, floor float64) bool {
	if floor <= 0 {
		return false
	}
	floored := false
	for i, v := range row {
		if v == 0 {
			row[i] = floor
			floored = true
		}
	}
	return floored
}

// assemble builds one estimator's regression table: a row per
// component over the given metrics, zero values replaced by zeroFloor.
// It returns the floor it applied, or 0 if no value needed one.
func assemble(comps []dataset.Component, metrics []dataset.Metric) (*nlme.Data, float64, error) {
	if len(comps) == 0 {
		return nil, 0, fmt.Errorf("core: empty measurement database")
	}
	if len(metrics) == 0 {
		return nil, 0, fmt.Errorf("core: no metrics selected")
	}
	k := len(metrics)
	d := &nlme.Data{
		Groups:  make([]string, len(comps)),
		Efforts: make([]float64, len(comps)),
		Metrics: make([][]float64, len(comps)),
	}
	values := make([]float64, len(comps)*k)
	floored := false
	for i, c := range comps {
		row := values[i*k : (i+1)*k : (i+1)*k]
		for j, m := range metrics {
			v, err := c.Metric(m)
			if err != nil {
				return nil, 0, err
			}
			row[j] = v
		}
		if floorZeros(row, zeroFloor) {
			floored = true
		}
		d.Groups[i] = c.Project
		d.Efforts[i] = c.Effort
		d.Metrics[i] = row
	}
	for _, m := range metrics {
		d.MetricNames = append(d.MetricNames, string(m))
	}
	if !floored {
		return d, 0, nil
	}
	return d, zeroFloor, nil
}

// calibrate fits an assembled table; zeroFloor is what assemble
// applied.
func calibrate(d *nlme.Data, metrics []dataset.Metric, zeroFloor float64, opts CalibrationOptions) (*Calibration, error) {
	fit := nlme.FitFixed
	if opts.Mixed {
		fit = nlme.Fit
	}
	res, err := fit(d, nlme.FitOptions{Concurrency: opts.Concurrency})
	if err != nil {
		return nil, fmt.Errorf("core: calibration failed: %w", err)
	}
	return newCalibration(metrics, res, zeroFloor), nil
}

func newCalibration(metrics []dataset.Metric, fit *nlme.Result, zeroFloor float64) *Calibration {
	return &Calibration{
		Metrics:   append([]dataset.Metric(nil), metrics...),
		Fit:       fit,
		ZeroFloor: zeroFloor,
	}
}

// CalibrateDEE1 fits the paper's recommended DEE1 estimator
// (w1·Stmts + w2·FanInLC, mixed model) on the database.
func CalibrateDEE1(comps []dataset.Component) (*Calibration, error) {
	return Calibrate(comps, DEE1Metrics, CalibrationOptions{Mixed: true})
}

// SigmaEps returns the fitted σε, the paper's goodness-of-fit measure.
func (c *Calibration) SigmaEps() float64 { return c.Fit.SigmaEps }

// Productivity returns the empirical-Bayes ρ of a project from the
// calibration database, or 1 with ok=false for unknown projects.
func (c *Calibration) Productivity(project string) (rho float64, ok bool) {
	rho, ok = c.Fit.Productivities[project]
	if !ok {
		return 1, false
	}
	return rho, true
}

// Estimate is a design-effort prediction with its uncertainty.
type Estimate struct {
	// Median is eff of Equation 1: the median person-month estimate.
	Median float64
	// Mean applies Equation 4's e^((σε²+σρ²)/2) correction.
	Mean float64
	// CI68 and CI90 are the 68% and 90% confidence intervals for the
	// true effort (Figures 3/4 of the paper).
	CI68, CI90 [2]float64
	// Rho is the productivity the estimate assumed.
	Rho float64
}

// Estimate predicts the effort of a component from its metrics, for a
// team with productivity rho (use 1 for relative estimates, per
// Section 3.1.1).
func (c *Calibration) Estimate(m *measure.Metrics, rho float64) (*Estimate, error) {
	row := make([]float64, len(c.Metrics))
	for k, metric := range c.Metrics {
		v, err := m.Value(metric)
		if err != nil {
			return nil, err
		}
		row[k] = v
	}
	return c.estimateRow(row, rho)
}

// EstimateFromValues predicts effort from raw metric values given in
// the calibration's metric order.
func (c *Calibration) EstimateFromValues(values []float64, rho float64) (*Estimate, error) {
	if len(values) != len(c.Metrics) {
		return nil, fmt.Errorf("core: %d values for %d metrics", len(values), len(c.Metrics))
	}
	return c.estimateRow(append([]float64(nil), values...), rho)
}

// estimateRow floors row in place with the calibration's floor and
// predicts from it.
func (c *Calibration) estimateRow(row []float64, rho float64) (*Estimate, error) {
	floorZeros(row, c.ZeroFloor)
	median, err := c.Fit.Predict(row, rho)
	if err != nil {
		return nil, err
	}
	lo68, hi68 := c.Fit.ConfidenceInterval(median, 0.68)
	lo90, hi90 := c.Fit.ConfidenceInterval(median, 0.90)
	return &Estimate{
		Median: median,
		Mean:   median * c.Fit.MeanFactor(),
		CI68:   [2]float64{lo68, hi68},
		CI90:   [2]float64{lo90, hi90},
		Rho:    rho,
	}, nil
}

// EstimatorAccuracy is one row of a Table 4-style evaluation.
type EstimatorAccuracy struct {
	Name         string
	Metrics      []dataset.Metric
	SigmaEps     float64 // mixed model (with productivity adjustment)
	SigmaEpsRho1 float64 // fixed model (ρ = 1, Section 3.2)
	AIC, BIC     float64
	Calibration  *Calibration
}

// EvaluateEstimatorsN reproduces the Table 4 analysis on a database:
// every single-metric estimator plus DEE1, each fitted with and
// without the productivity adjustment, sorted by σε. The 24 fits go to
// nlme.FitAll in one call, so every restart of every fit shares one
// pool of the given concurrency (0 = GOMAXPROCS, 1 = exact sequential
// path). Results are bit-identical for every value.
func EvaluateEstimatorsN(comps []dataset.Component, concurrency int) ([]EstimatorAccuracy, error) {
	type spec struct {
		name    string
		metrics []dataset.Metric
		floor   float64
	}
	specs := []spec{{name: "DEE1", metrics: DEE1Metrics}}
	for _, m := range dataset.AllMetrics {
		specs = append(specs, spec{name: string(m), metrics: []dataset.Metric{m}})
	}
	// Problems 2i and 2i+1 are estimator i's mixed and fixed fits.
	problems := make([]*nlme.Problem, 0, 2*len(specs))
	for i := range specs {
		s := &specs[i]
		d, floor, err := assemble(comps, s.metrics)
		if err != nil {
			return nil, fmt.Errorf("core: estimator %s: %w", s.name, err)
		}
		s.floor = floor
		mixed, err := nlme.NewProblem(d, true)
		if err != nil {
			return nil, fmt.Errorf("core: estimator %s: %w", s.name, err)
		}
		fixed, err := nlme.NewProblem(d, false)
		if err != nil {
			return nil, fmt.Errorf("core: estimator %s (ρ=1): %w", s.name, err)
		}
		problems = append(problems, mixed, fixed)
	}
	fits, err := nlme.FitAll(problems, nlme.FitOptions{Concurrency: concurrency})
	if err != nil {
		return nil, fmt.Errorf("core: calibration failed: %w", err)
	}
	out := make([]EstimatorAccuracy, len(specs))
	for i, s := range specs {
		mixed, fixed := fits[2*i], fits[2*i+1]
		out[i] = EstimatorAccuracy{
			Name:         s.name,
			Metrics:      s.metrics,
			SigmaEps:     mixed.SigmaEps,
			SigmaEpsRho1: fixed.SigmaEps,
			AIC:          mixed.AIC(),
			BIC:          mixed.BIC(),
			Calibration:  newCalibration(s.metrics, mixed, s.floor),
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SigmaEps < out[j].SigmaEps })
	return out, nil
}
