package paper

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gencorpus"
	"repro/internal/measure"
)

// ScaleResult is one corpus-scale accounting sweep: the Figure 6
// experiment re-run on a generated corpus of N components instead of
// the paper's fixed 18, with the measurement pipeline's scaling
// numbers alongside the estimator accuracies.
type ScaleResult struct {
	N           int    // components
	Groups      int    // share groups (the mixed-effects projects)
	Seed        uint64 // generator seed
	Fingerprint string // corpus source fingerprint (gencorpus.Fingerprint)

	// With and Without map estimator name → σε fitted on the corpus
	// measured with and without the accounting procedure, synthetic
	// efforts as ground truth.
	With    map[string]float64
	Without map[string]float64

	// Pipeline scaling numbers for the 2N-unit measurement sweep.
	ParseMillis        float64 // generate + parse wall time
	MeasureMillis      float64 // measurement sweep wall time
	PerComponentMillis float64 // MeasureMillis / (2N)
	Session            measure.SessionStats
}

// CorpusScaleConfig generates a seeded corpus from cfg, measures all N
// components with and without the accounting procedure (2N units
// through one streaming session batch, so peak memory stays bounded at
// any N), fits every estimator on both measurement sets against the
// generator's synthetic efforts, and reports accuracies plus pipeline
// scaling numbers. Opts.Session is ignored — the generated corpus is
// its own design, so the sweep always builds a private session (the
// cache, when supplied, is still shared and keyed by the generated
// sources' subtree hashes).
func CorpusScaleConfig(cfg gencorpus.Config, o Opts) (*ScaleResult, error) {
	genStart := time.Now()
	corpus, err := gencorpus.Generate(cfg)
	if err != nil {
		return nil, err
	}
	design, err := corpus.Design(o.Concurrency)
	if err != nil {
		return nil, err
	}
	parseMillis := float64(time.Since(genStart).Nanoseconds()) / 1e6

	n := len(corpus.Components)
	units := make([]measure.Unit, 0, 2*n)
	for _, c := range corpus.Components {
		units = append(units, measure.Unit{Top: c.Top, UseAccounting: true})
	}
	for _, c := range corpus.Components {
		units = append(units, measure.Unit{Top: c.Top, UseAccounting: false})
	}

	sess := measure.NewSession(design)
	withRows := make([]dataset.Component, n)
	withoutRows := make([]dataset.Component, n)
	measureStart := time.Now()
	err = sess.MeasureStream(units, o.measureOptions(), func(i int, res *measure.ComponentResult) error {
		ci := i % n
		c := corpus.Components[ci]
		// Retain only the fit-ready metric projection.
		row := dataset.Component{
			Project: c.Project,
			Name:    c.Top,
			Effort:  c.Effort,
			Metrics: res.Metrics.MetricMap(),
		}
		if i < n {
			withRows[ci] = row
		} else {
			withoutRows[ci] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	measureMillis := float64(time.Since(measureStart).Nanoseconds()) / 1e6

	res := &ScaleResult{
		N:                  n,
		Groups:             groupCount(corpus),
		Seed:               cfg.Seed,
		Fingerprint:        corpus.Fingerprint(),
		With:               map[string]float64{},
		Without:            map[string]float64{},
		ParseMillis:        parseMillis,
		MeasureMillis:      measureMillis,
		PerComponentMillis: measureMillis / float64(2*n),
		Session:            sess.Stats(),
	}
	fit := func(rows []dataset.Component, into map[string]float64) error {
		accs, err := core.EvaluateEstimatorsN(rows, o.Concurrency)
		if err != nil {
			return err
		}
		for _, a := range accs {
			into[a.Name] = a.SigmaEps
		}
		return nil
	}
	if err := fit(withRows, res.With); err != nil {
		return nil, fmt.Errorf("paper: scale fit (with accounting): %w", err)
	}
	if err := fit(withoutRows, res.Without); err != nil {
		return nil, fmt.Errorf("paper: scale fit (without accounting): %w", err)
	}
	return res, nil
}

// groupCount counts the distinct projects of a generated corpus.
func groupCount(c *gencorpus.Corpus) int {
	seen := map[string]bool{}
	for _, comp := range c.Components {
		seen[comp.Project] = true
	}
	return len(seen)
}

// String renders the corpus-scale sweep: scaling numbers, then the
// Figure 6-style accuracy comparison on the generated corpus.
func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Corpus scale: accounting sweep on a generated %d-component corpus\n", r.N)
	fmt.Fprintf(&b, "(seed %d, %d share groups, corpus %s)\n\n", r.Seed, r.Groups, r.Fingerprint[:12])
	fmt.Fprintf(&b, "generate+parse %.1f ms; measure %d units in %.1f ms (%.2f ms/unit)\n",
		r.ParseMillis, 2*r.N, r.MeasureMillis, r.PerComponentMillis)
	fmt.Fprintf(&b, "session: %d planned, %d synthesized, %d shared\n\n",
		r.Session.Planned, r.Session.Synthesized, r.Session.Shared)
	t := &table{header: []string{"Estimator", "sigma_eps (with)", "sigma_eps (without)", "inflation"}}
	for _, name := range sortedEstimatorNames() {
		w, okW := r.With[name]
		wo, okWo := r.Without[name]
		if !okW || !okWo {
			continue
		}
		infl := "-"
		if w > 0 {
			infl = fmt.Sprintf("%.2fx", wo/w)
		}
		t.add(name, f2(w), f2(wo), infl)
	}
	b.WriteString(t.String())
	return b.String()
}
