package measure

import (
	"maps"
	"sort"
	"testing"

	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/synth"
)

// referenceMinimize reimplements the parameter-minimization search
// with plain uncached, full elaborations and no memo of any kind —
// the specification the memoized/report-only search must match
// bit-for-bit. It mirrors minimizeParams' fixpoint structure exactly
// (same candidate order, same rounds) but probes every point from
// scratch.
func referenceMinimize(t *testing.T, d *hdl.Design, module string) map[string]int64 {
	t.Helper()
	mod, err := d.Module(module)
	if err != nil {
		t.Fatal(err)
	}
	_, refReport, err := elab.ElaborateOpts(d, module, nil, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	current := map[string]int64{}
	env := elab.NewEnv(nil)
	for _, p := range mod.Params {
		v, err := elab.Eval(p.Value, env)
		if err != nil {
			t.Fatal(err)
		}
		current[p.Name] = v
		if err := env.Define(p.Name, v); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, 0, len(current))
	for n := range current {
		names = append(names, n)
	}
	sort.Strings(names)

	for round := 0; round < 5; round++ {
		changed := false
		for _, name := range names {
			for _, v := range candidateValues(current[name]) {
				if v >= current[name] {
					break
				}
				cand := make(map[string]int64, len(current))
				for k, cv := range current {
					cand[k] = cv
				}
				cand[name] = v
				_, rep, err := elab.ElaborateOpts(d, module, cand, elab.Options{})
				if err != nil {
					continue
				}
				if ok, _ := refReport.CompatibleWith(rep); ok {
					current[name] = v
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	return current
}

// TestMinimizeParamsCorpusMatchesUncachedReference pins, for every
// corpus component and at several worker counts, that the memoized
// report-only search minimizes to exactly the parameters the plain
// uncached reference search finds, and that the netlist measured at
// that point hashes identically whether its elaboration came from the
// session cache or from scratch.
func TestMinimizeParamsCorpusMatchesUncachedReference(t *testing.T) {
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		want := referenceMinimize(t, d, c.Top)
		got, err := MinimizeParamsN(d, c.Top, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s: minimized %v, uncached reference %v", c.Label(), got, want)
		}

		// Downstream pin: the reference measurement's optimized netlist
		// (built from search-cached subtrees) must hash identically to a
		// synthesis of the same point elaborated entirely from scratch.
		res, err := measureComponentRef(d, c.Top, true, Options{Concurrency: 1})
		if err != nil {
			t.Fatalf("%s: measure: %v", c.Label(), err)
		}
		if !maps.Equal(res.MinimizedParams, want) {
			t.Errorf("%s: measured at %v, reference %v", c.Label(), res.MinimizedParams, want)
		}
		inst, rep, err := elab.ElaborateOpts(d, c.Top, want, elab.Options{})
		if err != nil {
			t.Fatalf("%s: fresh elaboration: %v", c.Label(), err)
		}
		fresh, err := synth.SynthesizeInstance(inst, rep, synth.LowerOptions{DedupInstances: true})
		if err != nil {
			t.Fatalf("%s: fresh synthesis: %v", c.Label(), err)
		}
		if got, want := res.NetlistHash, fresh.Optimized.Hash(); got != want {
			t.Errorf("%s: cached-elaboration netlist hash %s, fresh %s", c.Label(), got, want)
		}
	}
}

// TestMeasureComponentElabStats pins that the accounting path reports
// elaboration-cache activity: the search must reuse subtrees on a
// design whose submodules repeat across probes, the subtree counters
// must reach the shared StatsRecorder, and its probe counters must
// agree with the result's.
func TestMeasureComponentElabStats(t *testing.T) {
	d := design(t, replicatedDesign)
	rec := &elab.StatsRecorder{}
	res, err := MeasureComponent(d, "quad", true, Options{Concurrency: 1, ElabStats: rec})
	if err != nil {
		t.Fatal(err)
	}
	s, probeHits, probeMisses := rec.Snapshot()
	if s.Hits == 0 || s.InstancesReused == 0 {
		t.Errorf("accounting search reused no subtrees: %+v", s)
	}
	if probeMisses == 0 {
		t.Error("accounting search recorded no probes")
	}
	if probeHits != res.ElabCacheHits || probeMisses != res.ElabCacheMisses {
		t.Errorf("recorder probes %d/%d, result %d/%d",
			probeHits, probeMisses, res.ElabCacheHits, res.ElabCacheMisses)
	}
}
