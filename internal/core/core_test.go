package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/stats"
)

func TestCalibrateDEE1OnPaperData(t *testing.T) {
	cal, err := CalibrateDEE1(dataset.Paper())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cal.SigmaEps()-0.46) > 0.015 {
		t.Errorf("DEE1 σε = %.3f, paper 0.46", cal.SigmaEps())
	}
	if len(cal.Fit.Weights) != 2 || cal.Fit.Weights[0] <= 0 || cal.Fit.Weights[1] <= 0 {
		t.Errorf("weights = %v", cal.Fit.Weights)
	}
	// All four productivities known.
	for _, p := range []string{"Leon3", "PUMA", "IVM", "RAT"} {
		if _, ok := cal.Productivity(p); !ok {
			t.Errorf("missing productivity for %s", p)
		}
	}
	if rho, ok := cal.Productivity("Unknown"); ok || rho != 1 {
		t.Errorf("unknown project must give (1,false), got (%v,%v)", rho, ok)
	}
}

func TestEstimateLeon3Pipeline(t *testing.T) {
	cal, err := CalibrateDEE1(dataset.Paper())
	if err != nil {
		t.Fatal(err)
	}
	rho, _ := cal.Productivity("Leon3")
	est, err := cal.EstimateFromValues([]float64{2070, 10502}, rho)
	if err != nil {
		t.Fatal(err)
	}
	// Table 4 prints 12.8 for this component.
	if math.Abs(est.Median-12.8) > 0.2 {
		t.Errorf("median = %.2f, paper 12.8", est.Median)
	}
	if est.Mean <= est.Median {
		t.Error("mean must exceed median for a lognormal")
	}
	if !(est.CI90[0] < est.Median && est.Median < est.CI90[1]) {
		t.Errorf("median outside CI90: %+v", est)
	}
	if !(est.CI90[0] < est.CI68[0] && est.CI68[1] < est.CI90[1]) {
		t.Errorf("CI68 must nest inside CI90: %+v", est)
	}
	// The reported effort (24) lies within the 90% interval.
	if est.CI90[0] > 24 || est.CI90[1] < 24 {
		t.Errorf("actual effort 24 outside CI90 %v", est.CI90)
	}
}

func TestEvaluateEstimatorsOrdering(t *testing.T) {
	rows, err := EvaluateEstimatorsN(dataset.Paper(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	// Sorted ascending by σε with DEE1 first (the paper's headline).
	if rows[0].Name != "DEE1" {
		t.Errorf("best estimator = %s, want DEE1", rows[0].Name)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].SigmaEps < rows[i-1].SigmaEps {
			t.Errorf("rows not sorted at %d", i)
		}
	}
	// The good/bad split of Section 5.1.
	rank := map[string]int{}
	for i, r := range rows {
		rank[r.Name] = i
	}
	good := []string{"DEE1", "Stmts", "LoC", "FanInLC", "Nets"}
	bad := []string{"AreaS", "Cells", "FFs", "PowerS", "PowerD", "AreaL", "Freq"}
	for _, g := range good {
		for _, b := range bad {
			if rank[g] > rank[b] {
				t.Errorf("estimator %s (rank %d) should beat %s (rank %d)", g, rank[g], b, rank[b])
			}
		}
	}
	// Productivity adjustment helps: mixed σε ≤ fixed σε everywhere.
	for _, r := range rows {
		if r.SigmaEps > r.SigmaEpsRho1+1e-6 {
			t.Errorf("%s: mixed σε %v > fixed %v", r.Name, r.SigmaEps, r.SigmaEpsRho1)
		}
	}
}

// TestEvaluateEstimatorsMatchesCalibrate pins the one-table-per-
// estimator path to Calibrate: every row's calibration and fixed-model
// σε must equal what separate Calibrate calls produce.
func TestEvaluateEstimatorsMatchesCalibrate(t *testing.T) {
	comps := dataset.Paper()
	rows, err := EvaluateEstimatorsN(comps, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		mixed, err := Calibrate(comps, r.Metrics, CalibrationOptions{Mixed: true, Concurrency: 1})
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := Calibrate(comps, r.Metrics, CalibrationOptions{Concurrency: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Calibration, mixed) {
			t.Errorf("%s: calibration differs from Calibrate:\n got %+v\nwant %+v", r.Name, r.Calibration, mixed)
		}
		if r.SigmaEpsRho1 != fixed.SigmaEps() {
			t.Errorf("%s: σε(ρ=1) %v, Calibrate %v", r.Name, r.SigmaEpsRho1, fixed.SigmaEps())
		}
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate(nil, DEE1Metrics, CalibrationOptions{}); err == nil {
		t.Error("empty database must fail")
	}
	if _, err := Calibrate(dataset.Paper(), nil, CalibrationOptions{}); err == nil {
		t.Error("empty metric set must fail")
	}
	comps := dataset.Paper()
	if _, err := Calibrate(comps, []dataset.Metric{"NoSuch"}, CalibrationOptions{Mixed: true}); err == nil {
		t.Error("unknown metric must fail")
	}
}

func TestZeroFloorApplied(t *testing.T) {
	cal, err := Calibrate(dataset.Paper(), []dataset.Metric{dataset.FFs}, CalibrationOptions{Mixed: true})
	if err != nil {
		t.Fatal(err)
	}
	if cal.ZeroFloor != 1 {
		t.Errorf("ZeroFloor = %v, want 1 (IVM FFs=0 rows exist)", cal.ZeroFloor)
	}
	// With the floor, this reproduces the paper's σε = 2.14.
	if math.Abs(cal.SigmaEps()-2.14) > 0.02 {
		t.Errorf("FFs σε = %.3f, paper 2.14", cal.SigmaEps())
	}
	// Estimating a zero-FF component uses the floor rather than
	// failing.
	est, err := cal.Estimate(&measure.Metrics{FFs: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Median <= 0 {
		t.Errorf("estimate = %v", est.Median)
	}
}

func TestMeasureComponentEndToEnd(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"d.v": `
module alu #(parameter W = 8) (input [W-1:0] a, b, input op, output [W-1:0] y);
  assign y = op ? (a - b) : (a + b);
endmodule
module dp #(parameter W = 8) (input clk, input [W-1:0] a, b, c, input op, output reg [W-1:0] r);
  wire [W-1:0] t1, t2;
  alu #(.W(W)) u0 (.a(a), .b(b), .op(op), .y(t1));
  alu #(.W(W)) u1 (.a(t1), .b(c), .op(op), .y(t2));
  always @(posedge clk) r <= t2;
endmodule`})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := MeasureComponent(d, "demo", "dp", true, measure.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if meas.Metrics.Stmts <= 0 || meas.Metrics.Cells <= 0 {
		t.Errorf("metrics = %+v", meas.Metrics)
	}
	if meas.Accounting.DedupedInstances != 1 {
		t.Errorf("deduped = %d, want 1 (second ALU)", meas.Accounting.DedupedInstances)
	}
	if meas.Project != "demo" || meas.Name != "dp" {
		t.Errorf("measurement = %s/%s, want demo/dp", meas.Project, meas.Name)
	}
	if m := meas.Metrics.MetricMap(); len(m) != len(dataset.AllMetrics) {
		t.Errorf("metrics incomplete: %v", m)
	}

}

// TestConfidenceFactorsAndMeanFactor pins how an estimate carries its
// uncertainty: the 90% interval is the median scaled by the Figure 4
// confidence factors of the calibration's σε, and the mean is the
// median scaled by Equation 4's e^((σε²+σρ²)/2).
func TestConfidenceFactorsAndMeanFactor(t *testing.T) {
	cal, err := CalibrateDEE1(dataset.Paper())
	if err != nil {
		t.Fatal(err)
	}
	est, err := cal.EstimateFromValues([]float64{1200, 8000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	se, sr := cal.Fit.SigmaEps, cal.Fit.SigmaRho
	lo, hi := stats.ConfidenceFactors(se, 0.90)
	if want := [2]float64{lo * est.Median, hi * est.Median}; est.CI90 != want {
		t.Errorf("CI90 = %v, want %v", est.CI90, want)
	}
	want := est.Median * math.Exp((se*se+sr*sr)/2)
	if math.Abs(est.Mean-want) > 1e-12*want {
		t.Errorf("Mean = %v, want %v", est.Mean, want)
	}
}

// TestEstimatePathsAgreeOnZeroMetric pins that both estimate paths
// floor a zero metric the way the calibration floored its table. On a
// Stmts+FFs mixed calibration of the paper data (the IVM rows have
// FFs = 0, so the floor is 1) Estimate and EstimateFromValues must
// agree bit for bit, and the caller's values stay untouched.
func TestEstimatePathsAgreeOnZeroMetric(t *testing.T) {
	cal, err := Calibrate(dataset.Paper(), []dataset.Metric{dataset.Stmts, dataset.FFs}, CalibrationOptions{Mixed: true})
	if err != nil {
		t.Fatal(err)
	}
	if cal.ZeroFloor != 1 {
		t.Fatalf("ZeroFloor = %v, want 1", cal.ZeroFloor)
	}
	viaMetrics, err := cal.Estimate(&measure.Metrics{Stmts: 500}, 1)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{500, 0}
	viaValues, err := cal.EstimateFromValues(values, 1)
	if err != nil {
		t.Fatal(err)
	}
	if *viaValues != *viaMetrics {
		t.Errorf("EstimateFromValues = %+v, Estimate = %+v", *viaValues, *viaMetrics)
	}
	if values[1] != 0 {
		t.Errorf("EstimateFromValues floored the caller's slice: %v", values)
	}
}

func TestRelativeEstimationMode(t *testing.T) {
	// Section 3.1.1: with ρ = 1 the model gives relative estimates —
	// a component with 2× the metrics gets ~2× the effort.
	cal, err := CalibrateDEE1(dataset.Paper())
	if err != nil {
		t.Fatal(err)
	}
	e1, err := cal.EstimateFromValues([]float64{500, 4000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := cal.EstimateFromValues([]float64{1000, 8000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := e2.Median / e1.Median
	if math.Abs(ratio-2) > 1e-9 {
		t.Errorf("relative ratio = %v, want exactly 2 (linear model)", ratio)
	}
}
