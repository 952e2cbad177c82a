package paper

import (
	"fmt"
	"strings"

	"repro/internal/designs"
	"repro/internal/measure"
	"repro/internal/nlme"
)

// TimingAwareResult is the future-work extension experiment of §2.5/§7:
// the paper conjectures that estimators "aware of back-end physical
// design and timing concerns" could capture effort that structural
// metrics miss (e.g. the redesign iterations a hard-to-close component
// forces). This experiment measures two timing-derived metrics on the
// synthetic corpus — the static critical-path delay and the count of
// near-critical endpoints — and fits them alongside the Table 3
// estimators.
type TimingAwareResult struct {
	// SigmaEps per estimator, including the two timing metrics
	// ("CriticalNs", "NearCritical") and a DEE1+NearCritical
	// three-metric combination ("DEE1+Timing").
	SigmaEps map[string]float64
}

// TimingAwareOpts runs the extension experiment on the synthetic
// corpus. The timing metrics come with the accounting measurement: its
// synthesis summarizes the netlist's static timing, and cached
// measurements carry that summary, so warm runs read the identical
// numbers without synthesizing anything.
func TimingAwareOpts(o Opts) (*TimingAwareResult, error) {
	comps := designs.All()

	type row struct {
		project      string
		effort       float64
		stmts        float64
		fanInLC      float64
		criticalNs   float64
		nearCritical float64
	}
	// The accounting measurements run as one session batch; when the
	// caller shares a session with Figure 6 (ucpaper -all), every
	// component's synthesis is already in the shared table and this
	// experiment adds no synthesis work at all.
	sess, err := o.session()
	if err != nil {
		return nil, err
	}
	units := make([]measure.Unit, len(comps))
	for i, c := range comps {
		units[i] = measure.Unit{Top: c.Top, UseAccounting: true}
	}
	accs, err := sess.MeasureAll(units, o.measureOptions())
	if err != nil {
		return nil, err
	}
	rows := make([]row, len(comps))
	for i, c := range comps {
		// Timing is summarized on the accounting-scaled synthesis.
		acc := accs[i]
		rows[i] = row{
			project:      c.Project,
			effort:       c.Effort,
			stmts:        float64(acc.Metrics.Stmts),
			fanInLC:      float64(acc.Metrics.FanInLC),
			criticalNs:   acc.Timing.CriticalNs,
			nearCritical: float64(acc.Timing.NearCritical),
		}
	}

	specs := []struct {
		name  string
		cols  func(r row) []float64
		names []string
	}{
		{"Stmts", func(r row) []float64 { return []float64{r.stmts} }, []string{"Stmts"}},
		{"DEE1", func(r row) []float64 { return []float64{r.stmts, r.fanInLC} }, []string{"Stmts", "FanInLC"}},
		{"CriticalNs", func(r row) []float64 { return []float64{r.criticalNs} }, []string{"CriticalNs"}},
		{"NearCritical", func(r row) []float64 { return []float64{r.nearCritical} }, []string{"NearCritical"}},
		{"DEE1+Timing", func(r row) []float64 { return []float64{r.stmts, r.fanInLC, r.nearCritical} }, []string{"Stmts", "FanInLC", "NearCritical"}},
	}
	// The five fits go to one FitAll call, so their restarts share one
	// pool.
	problems := make([]*nlme.Problem, len(specs))
	for i, s := range specs {
		d := &nlme.Data{MetricNames: s.names}
		for _, r := range rows {
			vals := s.cols(r)
			for j, v := range vals {
				if v == 0 {
					vals[j] = 1
				}
			}
			d.Groups = append(d.Groups, r.project)
			d.Efforts = append(d.Efforts, r.effort)
			d.Metrics = append(d.Metrics, vals)
		}
		if problems[i], err = nlme.NewProblem(d, true); err != nil {
			return nil, fmt.Errorf("paper: timing estimator %s: %w", s.name, err)
		}
	}
	fits, err := nlme.FitAll(problems, nlme.FitOptions{Concurrency: o.Concurrency})
	if err != nil {
		return nil, fmt.Errorf("paper: timing estimators: %w", err)
	}
	out := &TimingAwareResult{SigmaEps: map[string]float64{}}
	for i, s := range specs {
		out.SigmaEps[s.name] = fits[i].SigmaEps
	}
	return out, nil
}

// String renders the extension experiment.
func (r *TimingAwareResult) String() string {
	var b strings.Builder
	b.WriteString("Extension (§2.5/§7 future work): timing-aware effort estimators\n")
	b.WriteString("(synthetic corpus, accounting procedure applied)\n\n")
	t := &table{header: []string{"Estimator", "sigma_eps"}}
	for _, name := range []string{"DEE1", "Stmts", "DEE1+Timing", "CriticalNs", "NearCritical"} {
		if v, ok := r.SigmaEps[name]; ok {
			t.add(name, f2(v))
		}
	}
	b.WriteString(t.String())
	return b.String()
}
