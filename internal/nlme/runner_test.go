package nlme

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// runnerCases is a mix of the problem shapes FitAll pools: DEE1 mixed
// (12 restarts in 2-D) and fixed, a 3-metric mixed fit (DEE1 plus a
// third column, 3-D restarts), a single-metric mixed fit (1-D
// restarts), and a single-metric fixed fit, which has no restarts.
func runnerCases(t *testing.T) []*Problem {
	t.Helper()
	specs := []struct {
		metrics []dataset.Metric
		mixed   bool
	}{
		{[]dataset.Metric{dataset.Stmts, dataset.FanInLC}, true},
		{[]dataset.Metric{dataset.Stmts}, false},
		{[]dataset.Metric{dataset.Stmts, dataset.FanInLC, dataset.FFs}, true},
		{[]dataset.Metric{dataset.Stmts, dataset.FanInLC}, false},
		{[]dataset.Metric{dataset.Stmts}, true},
	}
	out := make([]*Problem, len(specs))
	for i, s := range specs {
		p, err := NewProblem(paperData(s.metrics...), s.mixed)
		if err != nil {
			t.Fatalf("%v mixed=%v: %v", s.metrics, s.mixed, err)
		}
		out[i] = p
	}
	if out[1].starts != nil {
		t.Fatalf("single-metric fixed problem has %d restarts, want none (closed form)", len(out[1].starts))
	}
	if got := len(out[0].starts); got != 12 {
		t.Fatalf("DEE1 mixed problem has %d restarts, want 12", got)
	}
	return out
}

// TestFitAllBitIdentical pins the runner: pooling every restart of
// every problem on one pool gives each problem exactly the optimum,
// evaluation count and fitted result that running it alone gives, at
// concurrency 1 and 8.
func TestFitAllBitIdentical(t *testing.T) {
	probs := runnerCases(t)
	alone := make([]stats.MinimizeResult, len(probs))
	aloneRes := make([]*Result, len(probs))
	for i, p := range probs {
		alone[i] = minimizeAll([]*Problem{p}, 1)[0]
		res, err := FitAll([]*Problem{p}, FitOptions{Concurrency: 1})
		if err != nil {
			t.Fatalf("problem %d alone: %v", i, err)
		}
		aloneRes[i] = res[0]
	}
	for _, workers := range []int{1, 8} {
		best := minimizeAll(probs, workers)
		res, err := FitAll(probs, FitOptions{Concurrency: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range probs {
			if !reflect.DeepEqual(best[i], alone[i]) {
				t.Errorf("workers %d, problem %d: pooled optimum %+v, alone %+v", workers, i, best[i], alone[i])
			}
			if !reflect.DeepEqual(res[i], aloneRes[i]) {
				t.Errorf("workers %d, problem %d: pooled result differs:\n got %+v\nwant %+v", workers, i, res[i], aloneRes[i])
			}
		}
	}
	// Fit and FitFixed are the runner on one problem.
	for i, d := range []struct {
		metrics []dataset.Metric
		fit     func(*Data, FitOptions) (*Result, error)
	}{
		{[]dataset.Metric{dataset.Stmts, dataset.FanInLC}, Fit},
		{[]dataset.Metric{dataset.Stmts}, FitFixed},
		{[]dataset.Metric{dataset.Stmts, dataset.FanInLC, dataset.FFs}, Fit},
		{[]dataset.Metric{dataset.Stmts, dataset.FanInLC}, FitFixed},
		{[]dataset.Metric{dataset.Stmts}, Fit},
	} {
		got, err := d.fit(paperData(d.metrics...), FitOptions{Concurrency: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, aloneRes[i]) {
			t.Errorf("problem %d: Fit/FitFixed differs from the runner:\n got %+v\nwant %+v", i, got, aloneRes[i])
		}
	}
	if alone[0].Evals <= len(probs[0].starts) {
		t.Errorf("DEE1 mixed: %d evaluations over %d restarts: counts were not summed", alone[0].Evals, len(probs[0].starts))
	}
}

// TestReduceRestartsPicksFirstLowest pins the reduction: the first
// strictly lowest objective wins in start order, so a later tie never
// displaces it, and the evaluation counts of every restart are summed.
func TestReduceRestartsPicksFirstLowest(t *testing.T) {
	// Double well: minima at ±2 with f(−2) = 0 and f(2) = 1.
	f := func(x []float64) float64 {
		a := (x[0] - 2) * (x[0] - 2)
		b := (x[0] + 2) * (x[0] + 2)
		return math.Min(a+1, b)
	}
	runs := []stats.MinimizeResult{
		stats.Minimize(f, []float64{3}, stats.NelderMeadOptions{}),
		stats.Minimize(f, []float64{-3}, stats.NelderMeadOptions{}),
	}
	best := reduceRestarts(runs)
	if math.Abs(best.X[0]+2) > 1e-3 || math.Abs(best.F) > 1e-6 {
		t.Errorf("best %v at %v, want the global minimum 0 at -2", best.F, best.X)
	}
	if best.Evals != runs[0].Evals+runs[1].Evals {
		t.Errorf("evals %d, want %d", best.Evals, runs[0].Evals+runs[1].Evals)
	}
	tie := reduceRestarts([]stats.MinimizeResult{
		{X: []float64{1}, F: 5, Evals: 1},
		{X: []float64{2}, F: 3, Evals: 2},
		{X: []float64{3}, F: 3, Evals: 4},
	})
	if tie.X[0] != 2 || tie.Evals != 7 {
		t.Errorf("tie: picked %v with %d evals, want the first F=3 restart (x=2) and 7", tie.X, tie.Evals)
	}
}
