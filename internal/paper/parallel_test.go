package paper

import (
	"reflect"
	"testing"
)

// The concurrency knob's contract: every experiment produces
// bit-identical results on the parallel path (Concurrency > 1) and the
// exact sequential path (Concurrency = 1). These tests pin that for
// the two pipelines the knob threads all the way through — the pure
// fitting pipeline (Table 4) and the measure→fit pipeline
// (MeasureCorpus), which exercises the accounting memoization under
// both pool shapes.

func TestTable4ParallelDeterminism(t *testing.T) {
	seq, err := Table4N(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Table4N(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel Table4 diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

func TestMeasureCorpusParallelDeterminism(t *testing.T) {
	seq, err := measureCorpusOpts(true, Opts{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := measureCorpusOpts(true, Opts{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel MeasureCorpus diverged from sequential")
	}
}

func TestAICBICParallelDeterminism(t *testing.T) {
	seq, err := AICBICN(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := AICBICN(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel AICBIC diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestTimingAwareParallelDeterminism covers the extension's five fits,
// whose restarts share one pool: the σε of every estimator, the
// three-metric DEE1+Timing among them, is bit-identical at
// concurrency 1 and 8.
func TestTimingAwareParallelDeterminism(t *testing.T) {
	seq, err := TimingAwareOpts(Opts{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := TimingAwareOpts(Opts{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel timing extension diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}
