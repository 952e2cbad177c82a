package measure_test

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/cache"
	"repro/internal/gencorpus"
	"repro/internal/measure"
	"repro/internal/timing"
)

// resultKey is the paper-facing projection of one measurement.
type resultKey struct {
	metrics measure.Metrics
	params  map[string]int64
	insts   int
	deduped int
	nlHash  string
	timing  timing.Summary
}

func project(res *measure.ComponentResult) resultKey {
	return resultKey{
		metrics: *res.Metrics,
		params:  maps.Clone(res.MinimizedParams),
		insts:   res.InstanceCount,
		deduped: res.DedupedInstances,
		nlHash:  res.NetlistHash,
		timing:  res.Timing,
	}
}

func sameKey(t *testing.T, label string, got, want resultKey) {
	t.Helper()
	if got.metrics != want.metrics {
		t.Errorf("%s: metrics differ:\n got %+v\nwant %+v", label, got.metrics, want.metrics)
	}
	if !maps.Equal(got.params, want.params) {
		t.Errorf("%s: minimized parameters differ: got %v, want %v", label, got.params, want.params)
	}
	if got.insts != want.insts || got.deduped != want.deduped {
		t.Errorf("%s: accounting counts (%d, %d), want (%d, %d)", label, got.insts, got.deduped, want.insts, want.deduped)
	}
	if got.nlHash != want.nlHash {
		t.Errorf("%s: optimized netlist hash %s, want %s", label, got.nlHash, want.nlHash)
	}
	if got.timing != want.timing {
		t.Errorf("%s: timing summary %+v, want %+v", label, got.timing, want.timing)
	}
}

// TestMeasureStreamMatchesBatchGenerated is the scale differential
// test: a generated 100-component corpus (200 units, with and without
// accounting) measured through the streaming path must be
// bit-identical to the batch path, sequentially and in parallel, with
// the cache off, cold, and warm. Every batch size plans the same way,
// so the size is for volume: the cold pass appends hundreds of
// records from four workers to one segment, and the warm pass, on a
// fresh handle that indexes them all at Open, must answer entirely
// from disk (nothing planned, nothing missed).
// scripts/ci.sh runs this under -race as its scale smoke.
func TestMeasureStreamMatchesBatchGenerated(t *testing.T) {
	const n = 100
	corpus, err := gencorpus.Generate(gencorpus.Config{Components: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	design, err := corpus.Design(0)
	if err != nil {
		t.Fatal(err)
	}
	units := make([]measure.Unit, 0, 2*n)
	for _, acct := range []bool{true, false} {
		for _, c := range corpus.Components {
			units = append(units, measure.Unit{Top: c.Top, UseAccounting: acct})
		}
	}

	// Reference: the batch path, sequential, no cache.
	ref := measure.NewSession(design)
	batch, err := ref.MeasureAll(units, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]resultKey, len(units))
	for i, res := range batch {
		want[i] = project(res)
	}

	check := func(label string, opts measure.Options) *measure.Session {
		t.Helper()
		sess := measure.NewSession(design)
		got := make([]resultKey, len(units))
		seen := make([]bool, len(units))
		err := sess.MeasureStream(units, opts, func(i int, res *measure.ComponentResult) error {
			if seen[i] {
				return fmt.Errorf("unit %d yielded twice", i)
			}
			seen[i] = true
			got[i] = project(res)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i := range units {
			if !seen[i] {
				t.Fatalf("%s: unit %d never yielded", label, i)
			}
			sameKey(t, fmt.Sprintf("%s unit %d (%s acct=%t)", label, i, units[i].Top, units[i].UseAccounting), got[i], want[i])
		}
		return sess
	}

	check("stream seq", measure.Options{Concurrency: 1})
	check("stream par", measure.Options{Concurrency: 4})

	dir := t.TempDir()
	c, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := check("stream cold cache", measure.Options{Concurrency: 4, Cache: c})
	if st := cold.Stats(); st.Synthesized == 0 {
		t.Fatalf("cold cached stream synthesized nothing: %+v", st)
	}

	c2, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := check("stream warm cache", measure.Options{Concurrency: 4, Cache: c2})
	if st := warm.Stats(); st.Planned != len(units) || st.Synthesized != 0 {
		t.Fatalf("warm stream did work: %+v (want every unit planned from disk records, none synthesized)", st)
	}
	if s := c2.Stats(); s.Misses != 0 {
		t.Fatalf("warm stream missed the cache %d times", s.Misses)
	}
}
