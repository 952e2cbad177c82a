package nlme

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// TestFitParallelDeterminism asserts the determinism guarantee of the
// concurrency knob: the parallel path must produce results that are
// bit-identical to the exact sequential path, field for field,
// including every productivity and the eval-count-independent
// diagnostics.
func TestFitParallelDeterminism(t *testing.T) {
	for _, metrics := range [][]dataset.Metric{
		{dataset.Stmts},
		{dataset.Stmts, dataset.FanInLC},
		{dataset.FFs},
		{dataset.Stmts, dataset.FanInLC, dataset.Nets},
	} {
		d := paperData(metrics...)
		seq, err := Fit(d, FitOptions{Concurrency: 1})
		if err != nil {
			t.Fatalf("%v sequential: %v", metrics, err)
		}
		par, err := Fit(d, FitOptions{Concurrency: 8})
		if err != nil {
			t.Fatalf("%v parallel: %v", metrics, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%v: parallel Fit diverged from sequential:\nseq: %+v\npar: %+v", metrics, seq, par)
		}
	}
}

// TestFitFixedParallelDeterminism covers the optimizer path (two
// metrics) and the closed-form single-metric path.
func TestFitFixedParallelDeterminism(t *testing.T) {
	for _, metrics := range [][]dataset.Metric{
		{dataset.Stmts, dataset.FanInLC},
		{dataset.Stmts},
	} {
		d := paperData(metrics...)
		seq, err := FitFixed(d, FitOptions{Concurrency: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := FitFixed(d, FitOptions{Concurrency: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%v: parallel FitFixed diverged from sequential:\nseq: %+v\npar: %+v", metrics, seq, par)
		}
	}
}
