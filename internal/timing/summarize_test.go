package timing_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/gencorpus"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/netlist"
	"repro/internal/stdcell"
	"repro/internal/synth"
	"repro/internal/timing"
)

// TestSummarizeMatchesAnalyze pins the summary kernel against the
// reference analysis exactly — CriticalNs compared with ==, not a
// tolerance — on the netlists the measurement path times: the 18
// paper components at their default parameters and at their minimized
// (accounting-scaled, deduplicated) parameters, plus a seeded
// generated-corpus sample. Each netlist is summarized with fresh
// scratch and with one workspace reused dirty across all of them, the
// way a session pool worker reuses it.
func TestSummarizeMatchesAnalyze(t *testing.T) {
	lib := stdcell.Default180nm()
	ws := &timing.Workspace{}
	check := func(label string, nl *netlist.Netlist) {
		t.Helper()
		an := timing.Analyze(nl, lib)
		want := timing.Summary{CriticalNs: an.CriticalNs, NearCritical: an.NearCritical}
		if want.CriticalNs == 0 || want.NearCritical == 0 {
			t.Errorf("%s: degenerate reference %+v", label, want)
		}
		for _, w := range []*timing.Workspace{nil, ws} {
			if got := timing.Summarize(nl, lib, w); got != want {
				t.Errorf("%s (reused workspace %t): Summarize = %+v, Analyze says %+v", label, w != nil, got, want)
			}
		}
	}
	synthAt := func(d *hdl.Design, top string, params map[string]int64, dedup bool) *netlist.Netlist {
		t.Helper()
		inst, rep, err := elab.ElaborateOpts(d, top, params, elab.Options{})
		if err != nil {
			t.Fatalf("%s: %v", top, err)
		}
		res, err := synth.SynthesizeInstance(inst, rep, synth.LowerOptions{DedupInstances: dedup})
		if err != nil {
			t.Fatalf("%s: %v", top, err)
		}
		return res.Optimized
	}

	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		check(c.Label()+" default", synthAt(d, c.Top, nil, false))
		acc, err := measure.MeasureComponent(d, c.Top, true, measure.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		check(c.Label()+" minimized", synthAt(d, c.Top, acc.MinimizedParams, true))
	}

	corpus, err := gencorpus.Generate(gencorpus.Config{Components: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d, err := corpus.Design(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus.Components {
		check("generated "+c.Top, synthAt(d, c.Top, nil, false))
	}
}
