package paper_test

import (
	"testing"

	"repro/internal/gencorpus"
	"repro/internal/paper"
)

// TestCorpusScaleSmall runs the corpus-scale sweep on a small
// generated corpus and sanity-checks the result shape: both accuracy
// maps populated, positive σε values, and coherent session counters.
func TestCorpusScaleSmall(t *testing.T) {
	res, err := paper.CorpusScaleConfig(gencorpus.Config{Components: 10, Seed: 1}, paper.Opts{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 10 {
		t.Fatalf("N = %d, want 10", res.N)
	}
	if len(res.With) == 0 || len(res.Without) == 0 {
		t.Fatalf("empty accuracy maps: with=%d without=%d", len(res.With), len(res.Without))
	}
	for name, v := range res.With {
		if v < 0 {
			t.Fatalf("estimator %s: negative sigma_eps %v", name, v)
		}
	}
	st := res.Session
	if st.Components != 20 {
		t.Fatalf("session measured %d components, want 20", st.Components)
	}
	if st.Synthesized == 0 {
		t.Fatalf("session synthesized nothing: %+v", st)
	}
	if out := res.String(); len(out) == 0 {
		t.Fatal("empty render")
	}

	// Determinism across runs: the sweep's fitted accuracies are a pure
	// function of (n, seed) — same corpus, same synthetic efforts.
	res2, err := paper.CorpusScaleConfig(gencorpus.Config{Components: 10, Seed: 1}, paper.Opts{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fingerprint != res.Fingerprint {
		t.Fatalf("fingerprint differs across runs: %s vs %s", res2.Fingerprint, res.Fingerprint)
	}
	for name, v := range res.With {
		if res2.With[name] != v {
			t.Fatalf("estimator %s: sigma_eps %v (workers 2) != %v (workers 1)", name, v, res2.With[name])
		}
	}
	for name, v := range res.Without {
		if res2.Without[name] != v {
			t.Fatalf("estimator %s (without): sigma_eps %v != %v", name, v, res2.Without[name])
		}
	}
}
