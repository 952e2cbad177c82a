package paper

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/designs"
	"repro/internal/measure"
)

// corpusRows converts batch measurements into fit-ready database rows
// (efforts are the Table 2 values their real counterparts reported).
func corpusRows(comps []designs.Component, results []*measure.ComponentResult) ([]dataset.Component, error) {
	if len(results) != len(comps) {
		return nil, fmt.Errorf("paper: %d measurements for %d components", len(results), len(comps))
	}
	rows := make([]dataset.Component, len(comps))
	for i, c := range comps {
		rows[i] = dataset.Component{
			Project: c.Project,
			Name:    c.Name,
			Effort:  c.Effort,
			Metrics: results[i].Metrics.MetricMap(),
		}
	}
	return rows, nil
}

// Figure6Result is the accounting-procedure experiment: per-estimator
// σε fitted on the synthetic corpus measured with and without the
// procedure of Section 2.2.
type Figure6Result struct {
	With    map[string]float64 // estimator → σε, accounting enabled
	Without map[string]float64 // estimator → σε, accounting disabled
	// PaperWithout holds the two "without" values the paper states
	// numerically (FanInLC 1.18, Nets 1.07), for the qualitative
	// cross-check.
	PaperWithout map[string]float64
}

// Figure6Opts runs the experiment. The paper's raw per-component
// metrics without the accounting procedure were never published, so
// this is the one experiment that substitutes the synthetic corpus for
// the original designs (see DESIGN.md); the success criterion is the
// *shape*: synthesis-metric estimators lose accuracy without the
// procedure, software-metric estimators do not change at all.
//
// Both sweeps — accounting on and off — are planned as one session
// batch, so the two measurements of a component whose minimization
// lands on its declared defaults (and whose hierarchy gives the
// single-instance rule nothing to remove) share a single synthesis.
// Both estimator-evaluation batches run on the Opts.Concurrency pool.
func Figure6Opts(o Opts) (*Figure6Result, error) {
	concurrency := o.Concurrency
	comps := designs.All()
	sess, err := o.session()
	if err != nil {
		return nil, err
	}
	units := make([]measure.Unit, 0, 2*len(comps))
	for _, c := range comps {
		units = append(units, measure.Unit{Top: c.Top, UseAccounting: true})
	}
	for _, c := range comps {
		units = append(units, measure.Unit{Top: c.Top, UseAccounting: false})
	}
	all, err := sess.MeasureAll(units, o.measureOptions())
	if err != nil {
		return nil, err
	}
	withComps, err := corpusRows(comps, all[:len(comps)])
	if err != nil {
		return nil, err
	}
	withoutComps, err := corpusRows(comps, all[len(comps):])
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{
		With:         map[string]float64{},
		Without:      map[string]float64{},
		PaperWithout: dataset.PaperSigmaEpsNoAccounting(),
	}
	fit := func(comps []dataset.Component, into map[string]float64) error {
		rows, err := core.EvaluateEstimatorsN(comps, concurrency)
		if err != nil {
			return err
		}
		for _, r := range rows {
			into[r.Name] = r.SigmaEps
		}
		return nil
	}
	if err := fit(withComps, res.With); err != nil {
		return nil, err
	}
	if err := fit(withoutComps, res.Without); err != nil {
		return nil, err
	}
	return res, nil
}

// SynthesisEstimators lists the estimators whose metrics come from
// synthesis and are therefore affected by the accounting procedure.
var SynthesisEstimators = []string{"FanInLC", "Nets", "Cells", "AreaL", "AreaS", "FFs", "PowerD", "PowerS", "Freq"}

// SoftwareEstimators lists the estimators measured on source text,
// which the accounting procedure does not affect (Section 5.3).
var SoftwareEstimators = []string{"Stmts", "LoC"}

// String renders the Figure 6 bar comparison.
func (r *Figure6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: estimator accuracy without vs with the accounting procedure\n")
	b.WriteString("(synthetic corpus through the full synthesis pipeline; paper's published\n")
	b.WriteString(" 'without' values shown where the text states them)\n\n")
	t := &table{header: []string{"Estimator", "sigma_eps (with)", "sigma_eps (without)", "inflation", "paper (without)"}}
	for _, name := range sortedEstimatorNames() {
		w, okW := r.With[name]
		wo, okWo := r.Without[name]
		if !okW || !okWo {
			continue
		}
		paperV := ""
		if pv, ok := r.PaperWithout[name]; ok {
			paperV = f2(pv)
		}
		infl := "-"
		if w > 0 {
			infl = fmt.Sprintf("%.2fx", wo/w)
		}
		t.add(name, f2(w), f2(wo), infl, paperV)
	}
	b.WriteString(t.String())
	b.WriteString("\nbars (each # is 0.1 sigma_eps; W=with accounting, O=without):\n")
	for _, name := range sortedEstimatorNames() {
		w, okW := r.With[name]
		wo, okWo := r.Without[name]
		if !okW || !okWo {
			continue
		}
		fmt.Fprintf(&b, "%9s W %s\n", name, strings.Repeat("#", int(w*10+0.5)))
		fmt.Fprintf(&b, "%9s O %s\n", "", strings.Repeat("#", int(wo*10+0.5)))
	}
	return b.String()
}
