package paper

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/designs"
	"repro/internal/measure"
)

// measureCorpusOpts measures all 18 synthetic components through the
// full pipeline, with or without the accounting procedure, and returns
// them as a fit-ready measurement database (efforts are the Table 2
// values their real counterparts reported) in designs.All() order.
// The measured corpus is identical for every concurrency value and for
// cache off / cold / warm. The 18 components run as one
// measure.Session batch over the corpus-wide parsed design: one parse,
// a shared elaboration cache, and one synthesis per distinct (module,
// parameters) signature — bit-identical to measuring each component in
// isolation.
func measureCorpusOpts(useAccounting bool, o Opts) ([]dataset.Component, error) {
	comps := designs.All()
	sess, err := o.session()
	if err != nil {
		return nil, err
	}
	units := make([]measure.Unit, len(comps))
	for i, c := range comps {
		units[i] = measure.Unit{Top: c.Top, UseAccounting: useAccounting}
	}
	results, err := sess.MeasureAll(units, o.measureOptions())
	if err != nil {
		return nil, err
	}
	return corpusRows(comps, results)
}

func TestStaticTables(t *testing.T) {
	t1 := Table1()
	if !strings.Contains(t1, "Sparc V8") || !strings.Contains(t1, "Tournament") {
		t.Errorf("Table 1 incomplete:\n%s", t1)
	}
	t2 := Table2()
	if !strings.Contains(t2, "Leon3-Pipeline") || !strings.Contains(t2, "24") {
		t.Errorf("Table 2 incomplete:\n%s", t2)
	}
	t3 := Table3()
	if !strings.Contains(t3, "FanInLC") || !strings.Contains(t3, "internal/fpga") {
		t.Errorf("Table 3 incomplete:\n%s", t3)
	}
}

func TestTable4Reproduction(t *testing.T) {
	res, err := Table4N(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(res.Rows))
	}
	// The headline number: every σε cell matches the paper to ±0.02.
	if res.MaxAbsDiff > 0.02 {
		t.Errorf("max σε deviation from paper = %.3f, want <= 0.02\n%s", res.MaxAbsDiff, res)
	}
	if len(res.Components) != 18 {
		t.Fatalf("components = %d", len(res.Components))
	}
	for _, c := range res.Components {
		if math.Abs(c.DEE1-c.DEE1Paper) > 0.2 {
			t.Errorf("%s: DEE1 %.2f vs paper %.1f", c.Label, c.DEE1, c.DEE1Paper)
		}
	}
	out := res.String()
	if !strings.Contains(out, "DEE1") || !strings.Contains(out, "sigma_eps") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
}

func TestAICBICReproduction(t *testing.T) {
	res, err := AICBICN(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.DEE1AIC-34.8) > 0.25 || math.Abs(res.DEE1BIC-38.4) > 0.25 {
		t.Errorf("DEE1 AIC/BIC = %.2f/%.2f, paper 34.8/38.4", res.DEE1AIC, res.DEE1BIC)
	}
	if math.Abs(res.StmtsAIC-37.0) > 0.2 || math.Abs(res.StmtsBIC-39.7) > 0.2 {
		t.Errorf("Stmts AIC/BIC = %.2f/%.2f, paper 37.0/39.7", res.StmtsAIC, res.StmtsBIC)
	}
	// DEE1 fits better on both criteria, the paper's conclusion.
	if res.DEE1AIC >= res.StmtsAIC || res.DEE1BIC >= res.StmtsBIC {
		t.Errorf("DEE1 must beat Stmts: %+v", res)
	}
	if s := res.String(); !strings.Contains(s, "34.8") {
		t.Errorf("rendering incomplete:\n%s", s)
	}
}

// matchesPrinted reports whether a computed value matches a value the
// paper prints to two decimals. A printed p stands for every value that
// rounds to it, [p−0.005, p+0.005]; the computed value is rounded to
// three decimals and must lie in that interval, ends included (AreaS
// 2.0751 → 2.075 matches a printed 2.07). Both sides are compared in
// integer thousandths, so float error never decides an end.
func matchesPrinted(got, printed float64) bool {
	d := math.Round(got*1000) - math.Round(printed*1000)
	return math.Abs(d) <= 5
}

// TestPaperNumberGate is the paper-number gate as a test: every one of
// Table 4's 24 σε cells (12 estimators, with and without productivity
// adjustment) and DEE1's AIC/BIC of 34.87/38.44 match the published
// values under matchesPrinted.
func TestPaperNumberGate(t *testing.T) {
	res, err := Table4N(0)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, r := range res.Rows {
		for _, c := range []struct {
			col            string
			got, published float64
		}{
			{"σε", r.SigmaEps, r.SigmaEpsPaper},
			{"σε ρ=1", r.SigmaEpsRho1, r.SigmaEpsRho1Paper},
		} {
			cells++
			if !matchesPrinted(c.got, c.published) {
				t.Errorf("Table 4 %s %s: %.4f, paper prints %.2f", r.Name, c.col, c.got, c.published)
			}
		}
	}
	if cells != 24 {
		t.Errorf("Table 4 has %d σε cells, want 24", cells)
	}
	ab, err := AICBICN(0)
	if err != nil {
		t.Fatal(err)
	}
	if !matchesPrinted(ab.DEE1AIC, 34.87) || !matchesPrinted(ab.DEE1BIC, 38.44) {
		t.Errorf("DEE1 AIC/BIC = %.4f/%.4f, want 34.87/38.44", ab.DEE1AIC, ab.DEE1BIC)
	}
}

func TestMatchesPrinted(t *testing.T) {
	for _, c := range []struct {
		got, printed float64
		want         bool
	}{
		{2.0751, 2.07, true},
		{2.0649, 2.07, true},
		{2.0756, 2.07, false},
		{2.0644, 2.07, false},
		{34.8749, 34.87, true},
		{38.436, 38.44, true},
	} {
		if got := matchesPrinted(c.got, c.printed); got != c.want {
			t.Errorf("matchesPrinted(%v, %v) = %t, want %t", c.got, c.printed, got, c.want)
		}
	}
}

func TestFigure2Rendering(t *testing.T) {
	f := Figure2()
	if !strings.Contains(f, "mode=0.74") || !strings.Contains(f, "median=1.00") || !strings.Contains(f, "mean=1.16") {
		t.Errorf("Figure 2 annotations wrong:\n%s", f)
	}
	if !strings.Contains(f, "*") {
		t.Error("Figure 2 has no curve")
	}
}

func TestFigure3Rendering(t *testing.T) {
	f := Figure3()
	if !strings.Contains(f, "yl=0.48") && !strings.Contains(f, "yl=0.47") {
		t.Errorf("Figure 3 worked example missing:\n%s", f)
	}
}

func TestFigure4Positions(t *testing.T) {
	res, err := Figure4N(0)
	if err != nil {
		t.Fatal(err)
	}
	// The four annotated estimators sit in the paper's band order:
	// DEE1 < Stmts < LoC≈FanInLC < Nets.
	if !(res.Positions["DEE1"] < res.Positions["Stmts"] &&
		res.Positions["Stmts"] < res.Positions["Nets"]) {
		t.Errorf("positions out of order: %+v", res.Positions)
	}
	if res.Plot == "" {
		t.Error("no plot")
	}
}

func TestFigure5Scatter(t *testing.T) {
	res, err := Figure5N(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 18 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if !res.Leon3PipelineUnderestimated {
		t.Error("the Leon3-Pipeline underestimation (12.8 vs 24) must reproduce")
	}
	if res.Correlation < 0.75 {
		t.Errorf("DEE1 vs effort correlation = %.3f, expected strong positive", res.Correlation)
	}
	if !strings.Contains(res.Plot, "L") {
		t.Error("plot missing Leon3 markers")
	}
}

func TestFigure6AccountingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus measurement")
	}
	res, err := Figure6Opts(Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// Software metrics must be bit-identical across modes.
	for _, name := range SoftwareEstimators {
		if math.Abs(res.With[name]-res.Without[name]) > 1e-9 {
			t.Errorf("%s: σε changed without accounting (%.4f vs %.4f) — must be unaffected",
				name, res.With[name], res.Without[name])
		}
	}
	// The synthesis-metric estimators collectively lose accuracy: mean
	// inflation above 1. (Individual estimators can be noisy with 18
	// synthetic points; the paper's own claim is about the good
	// estimators FanInLC and Nets plus the general trend.)
	var ratioSum float64
	n := 0
	for _, name := range SynthesisEstimators {
		w, wo := res.With[name], res.Without[name]
		if w > 0 {
			ratioSum += wo / w
			n++
		}
	}
	if n == 0 || ratioSum/float64(n) <= 1.0 {
		t.Errorf("synthesis estimators should degrade without accounting; mean inflation = %.3f\n%s",
			ratioSum/float64(n), res)
	}
	// FanInLC and Nets specifically — the paper's two quoted cases.
	for _, name := range []string{"FanInLC", "Nets"} {
		if res.Without[name] < res.With[name] {
			t.Errorf("%s: σε without (%.3f) should be >= with (%.3f)", name, res.Without[name], res.With[name])
		}
	}
	if s := res.String(); !strings.Contains(s, "inflation") {
		t.Errorf("rendering incomplete:\n%s", s)
	}
}

func TestMeasureCorpusShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus measurement")
	}
	comps, err := measureCorpusOpts(true, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 18 {
		t.Fatalf("corpus = %d components", len(comps))
	}
	for _, c := range comps {
		if c.Effort <= 0 {
			t.Errorf("%s: effort %v", c.Project+"-"+c.Name, c.Effort)
		}
		if c.Metrics["Stmts"] <= 0 || c.Metrics["LoC"] <= 0 {
			t.Errorf("%s: missing software metrics %v", c.Name, c.Metrics)
		}
	}
}
