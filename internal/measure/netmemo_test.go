package measure_test

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/gencorpus"
	"repro/internal/hdl"
	"repro/internal/measure"
)

// paddedCorpus is a seeded 100-component generated corpus plus, per
// component, a copy of its top module named <top>_pad that declares
// one more wire and never uses it: the copy's structural keys differ
// from the original's, its optimized netlist does not. Its units
// measure every original and every copy with and without accounting.
func paddedCorpus(t *testing.T) (*hdl.Design, []measure.Unit) {
	t.Helper()
	corpus, err := gencorpus.Generate(gencorpus.Config{Components: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	files := maps.Clone(corpus.Files)
	var pad strings.Builder
	var tops []string
	for _, c := range corpus.Components {
		pad.WriteString(paddedCopy(t, corpus.Files[c.File], c.Top))
		tops = append(tops, c.Top, c.Top+"_pad")
	}
	files["pad.v"] = pad.String()
	design, err := hdl.ParseDesign(files)
	if err != nil {
		t.Fatal(err)
	}
	units := make([]measure.Unit, 0, 2*len(tops))
	for _, acct := range []bool{true, false} {
		for _, top := range tops {
			units = append(units, measure.Unit{Top: top, UseAccounting: acct})
		}
	}
	return design, units
}

// paddedCopy returns the declaration of module top in src, renamed to
// <top>_pad, with an unused two-bit wire added before its endmodule: a
// ranged declaration stays in the design-point key (a scalar one would
// not), so the copy keys apart from the original.
func paddedCopy(t *testing.T, src, top string) string {
	t.Helper()
	from := strings.Index(src, "module "+top+" ")
	to := strings.Index(src[max(from, 0):], "endmodule")
	if from < 0 || to < 0 {
		t.Fatalf("no module %s in its file", top)
	}
	body := src[from+len("module "+top) : from+to]
	return "module " + top + "_pad" + body + "  wire [1:0] pad_unused;\nendmodule\n"
}

// distinctHashes counts the distinct optimized netlists of a batch.
func distinctHashes(results []*measure.ComponentResult) int {
	seen := map[string]bool{}
	for _, r := range results {
		seen[r.NetlistHash] = true
	}
	return len(seen)
}

// TestNetlistMemoMatchesAlone pins the session's netlist memo: on a
// corpus whose padded copies repeat optimized netlists under other
// design-point keys, every unit
// of a sweep at 1 and 8 workers is bit-identical to the same unit
// measured alone in a fresh session, where the memo holds nothing to
// reuse. At one worker the memo runs the metric kernels exactly once
// per distinct netlist, so MetricsReused is Synthesized minus the
// distinct netlists; racing workers may both compute a netlist, so at
// 8 it is at most that.
func TestNetlistMemoMatchesAlone(t *testing.T) {
	design, units := paddedCorpus(t)
	alone := make([]*measure.ComponentResult, len(units))
	for i, u := range units {
		res, err := measure.NewSession(design).MeasureAll([]measure.Unit{u}, measure.Options{Concurrency: 1})
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = res[0]
	}
	for _, workers := range []int{1, 8} {
		sess := measure.NewSession(design)
		got, err := sess.MeasureAll(units, measure.Options{Concurrency: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range units {
			sameResult(t, fmt.Sprintf("workers=%d %s(acct=%t)", workers, u.Top, u.UseAccounting), got[i], alone[i])
		}
		st := sess.Stats()
		want := st.Synthesized - distinctHashes(got)
		if want == 0 {
			t.Fatalf("corpus repeats no optimized netlist across %d synthesized signatures", st.Synthesized)
		}
		if workers == 1 && st.MetricsReused != want {
			t.Errorf("workers=1: %d flights reused metrics, want %d synthesized - %d distinct netlists = %d",
				st.MetricsReused, st.Synthesized, distinctHashes(got), want)
		}
		if st.MetricsReused > want {
			t.Errorf("workers=%d: %d flights reused metrics, more than the %d repeated netlists", workers, st.MetricsReused, want)
		}
	}
}

// TestNetlistMemoOffWhenVerifying pins that a verifying cache, which
// exists to recompute, reuses no metrics: every synthesized signature
// runs the metric kernels, and the results still match a plain sweep.
func TestNetlistMemoOffWhenVerifying(t *testing.T) {
	design, units := paddedCorpus(t)
	want, err := measure.NewSession(design).MeasureAll(units, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := measure.Options{Concurrency: 1, Cache: c}
	if _, err := measure.NewSession(design).MeasureAll(units, opts); err != nil {
		t.Fatal(err)
	}
	c.SetVerify(true)
	sess := measure.NewSession(design)
	got, err := sess.MeasureAll(units, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		sameResult(t, fmt.Sprintf("verify %s(acct=%t)", u.Top, u.UseAccounting), got[i], want[i])
	}
	if st := sess.Stats(); st.MetricsReused != 0 || st.Synthesized <= distinctHashes(got) {
		t.Errorf("verifying sweep: %d metrics reused over %d synthesized signatures and %d netlists; want none reused",
			st.MetricsReused, st.Synthesized, distinctHashes(got))
	}
	if cs := c.Stats(); cs.VerifyChecks == 0 || cs.VerifyMismatches != 0 {
		t.Errorf("verify mode: %d checks, %d mismatches; want some checks, no mismatch", cs.VerifyChecks, cs.VerifyMismatches)
	}
}
