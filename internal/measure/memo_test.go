package measure

import (
	"reflect"
	"testing"
)

func TestMinimizeParamsParallelDeterminism(t *testing.T) {
	d := design(t, memoDesign)
	seq, err := MinimizeParamsN(d, "m", 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MinimizeParamsN(d, "m", 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel search minimized to %v, sequential to %v", par, seq)
	}
}

// TestMeasureComponentCarriesSynthesis pins what a result carries of
// its synthesis: the optimized netlist's hash and timing summary, and
// no netlist.
func TestMeasureComponentCarriesSynthesis(t *testing.T) {
	d := design(t, memoDesign)
	for _, useAccounting := range []bool{true, false} {
		res, err := MeasureComponent(d, "m", useAccounting, Options{})
		if err != nil {
			t.Fatalf("accounting=%v: %v", useAccounting, err)
		}
		if res.NetlistHash == "" {
			t.Errorf("accounting=%v: measurement carries no netlist hash", useAccounting)
		}
		if res.Synth != nil {
			t.Errorf("accounting=%v: measurement carries its synthesis", useAccounting)
		}
		// At full parameters the xor chain must synthesize to real
		// cells with a real critical path (the minimized point may
		// legally optimize to wires).
		if !useAccounting && res.Timing.CriticalNs == 0 {
			t.Errorf("accounting=false: timing summary %+v has no critical path", res.Timing)
		}
	}
}

// TestSearchConcurrency pins a batch's inner-pool rule: the search is
// serialized whenever the group pool is parallel.
func TestSearchConcurrency(t *testing.T) {
	for _, c := range []struct{ conc, want int }{{8, 1}, {2, 1}, {1, 1}} {
		if got := searchConcurrency(c.conc); got != c.want {
			t.Errorf("searchConcurrency(%d) = %d, want %d", c.conc, got, c.want)
		}
	}
}

// TestMeasureComponentParallelDeterminism: MeasureComponent searches
// with the full pool (it does not apply searchConcurrency), and its
// result is the same at every worker count.
func TestMeasureComponentParallelDeterminism(t *testing.T) {
	d := design(t, memoDesign)
	seq, err := MeasureComponent(d, "m", true, Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := MeasureComponent(d, "m", true, Options{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Metrics, par.Metrics) {
		t.Errorf("parallel metrics %+v, sequential %+v", par.Metrics, seq.Metrics)
	}
	if !reflect.DeepEqual(seq.MinimizedParams, par.MinimizedParams) {
		t.Errorf("parallel params %v, sequential %v", par.MinimizedParams, seq.MinimizedParams)
	}
}
