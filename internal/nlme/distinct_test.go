package nlme

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// repeatedRowCases are DEE1 data sets whose metric rows repeat: the 18
// paper rows measured by 12 projects with perturbed efforts, and a
// synthetic corpus in which every third observation copies an earlier
// row and the rest stay distinct.
func repeatedRowCases() map[string]*Data {
	rng := rand.New(rand.NewSource(35))
	paper := paperData(dataset.Stmts, dataset.FanInLC)
	repeated := &Data{MetricNames: paper.MetricNames}
	for p := 0; p < 12; p++ {
		for i, row := range paper.Metrics {
			repeated.Groups = append(repeated.Groups, fmt.Sprintf("P%d", p))
			repeated.Efforts = append(repeated.Efforts, paper.Efforts[i]*math.Exp(0.3*rng.NormFloat64()))
			repeated.Metrics = append(repeated.Metrics, row)
		}
	}
	mixed := synthData(rng, 6, 8, []float64{0.004, 0.0002}, 0.4, 0.5)
	for i := 3; i < mixed.NumObs(); i += 3 {
		mixed.Metrics[i] = append([]float64(nil), mixed.Metrics[rng.Intn(i)]...)
	}
	return map[string]*Data{"paper-rows-x12": repeated, "mixed-duplicates": mixed}
}

// perObservation returns a copy of pr whose profile treats every
// observation as its own row, so each evaluation takes one log per
// observation: the fit as it ran before rows were deduplicated.
func perObservation(pr *Problem) *Problem {
	p := *pr.p
	p.rows = p.d.Metrics
	p.rowOf = make([]int, len(p.rows))
	for i := range p.rowOf {
		p.rowOf[i] = i
	}
	p.alloc()
	q := *pr
	q.p = &p
	return &q
}

// TestDistinctRowsBitIdentical pins the one-log-per-distinct-row
// profile to the one-log-per-observation fit: DEE1 mixed and fixed fits
// on data with repeated rows give the same optimum, evaluation count
// and Result, at concurrency 1 and 8. The y vector at a few trial
// points also matches log Eff minus the per-observation predictorLogs
// bit for bit.
func TestDistinctRowsBitIdentical(t *testing.T) {
	for name, d := range repeatedRowCases() {
		for _, mixed := range []bool{true, false} {
			pr, err := NewProblem(d, mixed)
			if err != nil {
				t.Fatalf("%s mixed=%v: %v", name, mixed, err)
			}
			if n := len(pr.p.rows); n == 0 || n >= d.NumObs() {
				t.Fatalf("%s: %d distinct rows of %d observations; the case repeats none", name, n, d.NumObs())
			}
			ref := perObservation(pr)
			for _, logR := range [][]float64{{-3}, {-1.5}, {0.5}} {
				p := pr.p.worker()
				if !p.sums(logR) {
					t.Fatalf("%s: infeasible at %v", name, logR)
				}
				logEta, err := d.predictorLogs(p.w)
				if err != nil {
					t.Fatal(err)
				}
				for i, y := range p.y {
					if want := p.logEff[i] - logEta[i]; math.Float64bits(y) != math.Float64bits(want) {
						t.Fatalf("%s at %v: y[%d] = %v, per-observation %v", name, logR, i, y, want)
					}
				}
			}
			for _, workers := range []int{1, 8} {
				got := minimizeAll([]*Problem{pr}, workers)[0]
				want := minimizeAll([]*Problem{ref}, workers)[0]
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s mixed=%v workers=%d: optimum %+v, per-observation %+v", name, mixed, workers, got, want)
				}
				gotRes, err := FitAll([]*Problem{pr}, FitOptions{Concurrency: workers})
				if err != nil {
					t.Fatal(err)
				}
				wantRes, err := FitAll([]*Problem{ref}, FitOptions{Concurrency: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Errorf("%s mixed=%v workers=%d: result differs:\n got %+v\nwant %+v", name, mixed, workers, gotRes[0], wantRes[0])
				}
			}
		}
	}
}

// TestDistinctRowsIndex pins the row index: rows are keyed by exact
// bits in first-seen order, and a single-metric profile builds none.
func TestDistinctRowsIndex(t *testing.T) {
	rows, rowOf := distinctRows([][]float64{{1, 2}, {3, 4}, {1, 2}, {1, math.Nextafter(2, 3)}, {3, 4}})
	if want := [][]float64{{1, 2}, {3, 4}, {1, math.Nextafter(2, 3)}}; !reflect.DeepEqual(rows, want) {
		t.Errorf("rows %v, want %v", rows, want)
	}
	if want := []int{0, 1, 0, 2, 1}; !reflect.DeepEqual(rowOf, want) {
		t.Errorf("row index %v, want %v", rowOf, want)
	}
	pr, err := NewProblem(paperData(dataset.Stmts), true)
	if err != nil {
		t.Fatal(err)
	}
	if pr.p.rows != nil || pr.p.rowOf != nil {
		t.Errorf("single-metric profile built %d rows", len(pr.p.rows))
	}
}
