package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func TestPaperHas18Components(t *testing.T) {
	comps := Paper()
	if len(comps) != 18 {
		t.Fatalf("got %d components, want 18", len(comps))
	}
	byProject := map[string]int{}
	for _, c := range comps {
		byProject[c.Project]++
	}
	want := map[string]int{"Leon3": 4, "PUMA": 5, "IVM": 7, "RAT": 2}
	for p, n := range want {
		if byProject[p] != n {
			t.Errorf("project %s has %d components, want %d", p, byProject[p], n)
		}
	}
}

func TestPaperSpotValues(t *testing.T) {
	comps := Paper()
	byLabel := map[string]Component{}
	for _, c := range comps {
		byLabel[c.Label()] = c
	}

	lp := byLabel["Leon3-Pipeline"]
	if lp.Effort != 24 {
		t.Errorf("Leon3-Pipeline effort = %v, want 24", lp.Effort)
	}
	checks := []struct {
		label  string
		metric Metric
		want   float64
	}{
		{"Leon3-Pipeline", Stmts, 2070},
		{"Leon3-Pipeline", FanInLC, 10502},
		{"PUMA-Execute", LoC, 9613},
		{"PUMA-ROB", Nets, 9840},
		{"IVM-Memory", Cells, 12050},
		{"IVM-Decode", FFs, 0},
		{"IVM-Execute", FFs, 0},
		{"RAT-Standard", Freq, 137},
		{"RAT-Sliding", AreaS, 60713},
		{"IVM-Execute", AreaL, 619561},
		{"PUMA-Fetch", PowerS, 3513},
	}
	for _, c := range checks {
		comp, ok := byLabel[c.label]
		if !ok {
			t.Fatalf("missing component %s", c.label)
		}
		got, err := comp.Metric(c.metric)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s %s = %v, want %v", c.label, c.metric, got, c.want)
		}
	}
}

func TestPaperEffortTotals(t *testing.T) {
	// Sanity aggregate: total reported effort in Table 4's Effort column
	// is 24+6+6+6 + 3+4+4+12+1 + 10+2+4+4+3+10+5 + 0.6+1 = 105.6.
	var total float64
	for _, c := range Paper() {
		total += c.Effort
	}
	if total < 105.59 || total > 105.61 {
		t.Errorf("total effort = %v, want 105.6", total)
	}
}

func TestPaperAllMetricsPresent(t *testing.T) {
	for _, c := range Paper() {
		for _, m := range AllMetrics {
			if _, err := c.Metric(m); err != nil {
				t.Errorf("%s: %v", c.Label(), err)
			}
		}
	}
}

func TestPaperIndependentCopies(t *testing.T) {
	a := Paper()
	a[0].Metrics[Stmts] = -1
	b := Paper()
	if b[0].Metrics[Stmts] == -1 {
		t.Error("Paper() must return fresh copies")
	}
}

func TestMetricErrorNamesComponent(t *testing.T) {
	c := Component{Project: "P", Name: "N", Metrics: map[Metric]float64{}}
	_, err := c.Metric(Stmts)
	if err == nil || !strings.Contains(err.Error(), "P-N") {
		t.Errorf("error should name the component, got %v", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := Paper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip changed row count: %d vs %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i].Project != orig[i].Project || back[i].Name != orig[i].Name || back[i].Effort != orig[i].Effort {
			t.Errorf("row %d identity changed: %+v vs %+v", i, back[i], orig[i])
		}
		for m, v := range orig[i].Metrics {
			if back[i].Metrics[m] != v {
				t.Errorf("row %d metric %s: %v vs %v", i, m, back[i].Metrics[m], v)
			}
		}
	}
}

func TestCSVMissingCells(t *testing.T) {
	in := "project,component,effort,LoC,Stmts\nA,x,2,100,\n"
	comps, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 {
		t.Fatalf("got %d rows", len(comps))
	}
	if _, ok := comps[0].Metrics[Stmts]; ok {
		t.Error("empty cell must be omitted")
	}
	if comps[0].Metrics[LoC] != 100 {
		t.Errorf("LoC = %v, want 100", comps[0].Metrics[LoC])
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"a,b,c\n",
		"project,component,effort\nA,x,notanumber\n",
		"project,component,effort,LoC\nA,x,1,bad\n",
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestProjectsAndSelect(t *testing.T) {
	comps := Paper()
	ps := Projects(comps)
	if len(ps) != 4 || ps[0] != "Leon3" || ps[3] != "RAT" {
		t.Errorf("Projects = %v", ps)
	}
	perProject := map[string]int{}
	for _, c := range comps {
		perProject[c.Project]++
	}
	if n := perProject["IVM"]; n != 7 {
		t.Errorf("IVM has %d components, want 7", n)
	}
	if n := perProject["RAT"] + perProject["PUMA"]; n != 7 {
		t.Errorf("RAT and PUMA have %d components, want 7", n)
	}
}

func TestTable1AndTable3Shape(t *testing.T) {
	if rows := Table1(); len(rows) != 9 {
		t.Errorf("Table1 has %d rows, want 9", len(rows))
	}
	t3 := Table3()
	if len(t3) != 11 {
		t.Errorf("Table3 has %d rows, want 11", len(t3))
	}
	seen := map[Metric]bool{}
	for _, r := range t3 {
		seen[r.Metric] = true
	}
	for _, m := range AllMetrics {
		if !seen[m] {
			t.Errorf("Table3 missing metric %s", m)
		}
	}
}

func TestPaperReferenceTables(t *testing.T) {
	if n := len(PaperDEE1Column()); n != 18 {
		t.Errorf("DEE1 column has %d entries, want 18", n)
	}
	if n := len(PaperSigmaEps()); n != 12 {
		t.Errorf("σε table has %d entries, want 12", n)
	}
	if n := len(PaperSigmaEpsNoRho()); n != 12 {
		t.Errorf("σε(ρ=1) table has %d entries, want 12", n)
	}
	// The fixed-effects σε must never beat the mixed-effects σε for the
	// same estimator... except AreaS where the paper reports a tie.
	withRho, without := PaperSigmaEps(), PaperSigmaEpsNoRho()
	for name, s := range withRho {
		if without[name] < s {
			t.Errorf("%s: σε(ρ=1)=%v < σε=%v, impossible per the model", name, without[name], s)
		}
	}
}
