package nlme

import (
	"fmt"
	"math"
)

// Data is the input to a fit: n observations of reported effort, each
// with k metric values and a group (project / design team) label.
type Data struct {
	// Groups[i] is the project of observation i. Observations of the
	// same project share one productivity random effect.
	Groups []string
	// Efforts[i] is the reported design effort (person-months) of
	// observation i. Must be positive (the model is lognormal).
	Efforts []float64
	// Metrics[i][k] is metric k of observation i. Metric combinations
	// Σ w_k·m_ik must be positive for positive weights, so at least
	// one metric of every observation must be positive.
	Metrics [][]float64
	// MetricNames, optional, label the columns for reporting.
	MetricNames []string
}

// NumObs returns the number of observations.
func (d *Data) NumObs() int { return len(d.Efforts) }

// NumMetrics returns the number of metric columns.
func (d *Data) NumMetrics() int {
	if len(d.Metrics) == 0 {
		return 0
	}
	return len(d.Metrics[0])
}

// validMetric is the rule every metric value entering the model meets,
// in fitted data and in a prediction alike: finite and non-negative.
func validMetric(m float64) bool {
	return m >= 0 && !math.IsInf(m, 1) // NaN fails m >= 0
}

// positiveFinite is the rule for an effort or a productivity factor.
func positiveFinite(v float64) bool {
	return v > 0 && !math.IsInf(v, 1) // NaN fails v > 0
}

// Validate checks the structural invariants of the data set and
// returns a descriptive error on the first violation.
func (d *Data) Validate() error {
	n := d.NumObs()
	if n == 0 {
		return fmt.Errorf("nlme: empty data set")
	}
	if len(d.Groups) != n {
		return fmt.Errorf("nlme: %d groups for %d observations", len(d.Groups), n)
	}
	if len(d.Metrics) != n {
		return fmt.Errorf("nlme: %d metric rows for %d observations", len(d.Metrics), n)
	}
	k := d.NumMetrics()
	if k == 0 {
		return fmt.Errorf("nlme: no metric columns")
	}
	if d.MetricNames != nil && len(d.MetricNames) != k {
		return fmt.Errorf("nlme: %d metric names for %d columns", len(d.MetricNames), k)
	}
	for i := 0; i < n; i++ {
		if len(d.Metrics[i]) != k {
			return fmt.Errorf("nlme: observation %d has %d metrics, want %d", i, len(d.Metrics[i]), k)
		}
		if !positiveFinite(d.Efforts[i]) {
			return fmt.Errorf("nlme: observation %d has non-positive effort %v", i, d.Efforts[i])
		}
		anyPositive := false
		for _, m := range d.Metrics[i] {
			if !validMetric(m) {
				return fmt.Errorf("nlme: observation %d has invalid metric value %v", i, m)
			}
			if m > 0 {
				anyPositive = true
			}
		}
		if !anyPositive {
			return fmt.Errorf("nlme: observation %d has all-zero metrics; the lognormal model needs Σw·m > 0 (apply a floor first)", i)
		}
		if d.Groups[i] == "" {
			return fmt.Errorf("nlme: observation %d has empty group", i)
		}
	}
	return nil
}

// groupIndex returns, for each distinct group in first-seen order, the
// observation indices belonging to it.
func (d *Data) groupIndex() (names []string, members [][]int) {
	pos := map[string]int{}
	for i, g := range d.Groups {
		j, ok := pos[g]
		if !ok {
			j = len(names)
			pos[g] = j
			names = append(names, g)
			members = append(members, nil)
		}
		members[j] = append(members[j], i)
	}
	return names, members
}
