package measure_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/measure"
)

// accountingCorpus returns the full corpus design and one accounting
// unit per corpus component, the batch Figure 6 and the timing
// extension both measure.
func accountingCorpus(t *testing.T) (*hdl.Design, []measure.Unit) {
	t.Helper()
	d, err := designs.FullDesign()
	if err != nil {
		t.Fatal(err)
	}
	var units []measure.Unit
	for _, c := range designs.All() {
		units = append(units, measure.Unit{Top: c.Top, UseAccounting: true})
	}
	return d, units
}

// TestSessionSearchesOnce pins the session's search memo: a second
// accounting batch on the same session runs no minimization probe and
// elaborates nothing, and its results deep-equal the first batch's and
// the reference pipeline's, search counters included.
func TestSessionSearchesOnce(t *testing.T) {
	d, units := accountingCorpus(t)
	sess := measure.NewSession(d)
	rec1 := &elab.StatsRecorder{}
	first, err := sess.MeasureAll(units, measure.Options{Concurrency: 1, ElabStats: rec1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, misses := rec1.Snapshot(); misses == 0 {
		t.Fatal("first batch recorded no search probes")
	}
	rec2 := &elab.StatsRecorder{}
	second, err := sess.MeasureAll(units, measure.Options{Concurrency: 1, ElabStats: rec2})
	if err != nil {
		t.Fatal(err)
	}
	if s, hits, misses := rec2.Snapshot(); hits != 0 || misses != 0 || s != (elab.CacheStats{}) {
		t.Errorf("second batch recorded %d probe hits, %d misses, subtree stats %+v; want none", hits, misses, s)
	}
	for i, u := range units {
		if !reflect.DeepEqual(second[i], first[i]) {
			t.Errorf("%s: second batch result %+v, first %+v", u.Top, second[i], first[i])
		}
		ref, err := measure.MeasureComponentRef(d, u.Top, true, measure.Options{Concurrency: 1})
		if err != nil {
			t.Fatalf("%s: %v", u.Top, err)
		}
		if !reflect.DeepEqual(second[i], ref) {
			t.Errorf("%s: second batch result %+v, reference %+v", u.Top, second[i], ref)
		}
	}
}

// TestSearchMemoNotAliased: a caller that mutates a result's
// MinimizedParams changes neither the session's memo nor any later
// result.
func TestSearchMemoNotAliased(t *testing.T) {
	d, units := accountingCorpus(t)
	sess := measure.NewSession(d)
	first, err := sess.MeasureAll(units, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := measure.NewSession(d).MeasureAll(units, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	mutated := 0
	for _, res := range first {
		for name := range res.MinimizedParams {
			res.MinimizedParams[name] = 1 << 40
			mutated++
		}
		if res.MinimizedParams != nil {
			res.MinimizedParams["NOT_A_PARAM"] = 7
		}
	}
	if mutated == 0 {
		t.Fatal("no corpus component has a minimized parameter to mutate")
	}
	again, err := sess.MeasureAll(units, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		if !reflect.DeepEqual(again[i], fresh[i]) {
			t.Errorf("%s: after mutating a returned result, got %+v, want %+v", u.Top, again[i], fresh[i])
		}
	}
}

// TestSearchMemoConcurrentBatches runs the accounting batch from two
// goroutines on one session at once, so both may search the same top
// and race to store it; each must get the results of a private
// session.
func TestSearchMemoConcurrentBatches(t *testing.T) {
	d, units := accountingCorpus(t)
	opts := measure.Options{Concurrency: 2}
	want, err := measure.NewSession(d).MeasureAll(units, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess := measure.NewSession(d)
	var got [2][]*measure.ComponentResult
	var errs [2]error
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = sess.MeasureAll(units, opts)
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i, u := range units {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Errorf("%s: goroutine %d got %+v, private session %+v", u.Top, g, got[g][i], want[i])
			}
		}
	}
}
