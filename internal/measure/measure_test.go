package measure

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/hdl"
)

const sampleSrc = `
module sample #(parameter W = 8) (input clk, input [W-1:0] a, b, output reg [W-1:0] acc);
  wire [W-1:0] s;
  assign s = a + b;
  always @(posedge clk) acc <= acc + s;
endmodule`

func sampleDesign(t *testing.T) *hdl.Design {
	t.Helper()
	d, err := hdl.ParseDesign(map[string]string{"s.v": sampleSrc})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMeasureComponentProducesAllMetrics pins the full Table 3 vector
// of one measured component: every synthesis and physical metric is
// populated, the software metrics are the module's own source counts,
// and every metric is retrievable by name.
func TestMeasureComponentProducesAllMetrics(t *testing.T) {
	d := sampleDesign(t)
	res, err := MeasureComponent(d, "sample", false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	mod, err := d.Module("sample")
	if err != nil {
		t.Fatal(err)
	}
	if loc, stmts := refSourceCounts(mod); m.Stmts != stmts || m.LoC != loc || stmts <= 0 {
		t.Errorf("software metrics %d/%d, source counts %d/%d", m.Stmts, m.LoC, stmts, loc)
	}
	if m.Cells <= 0 || m.Nets <= 0 || m.FFs != 8 {
		t.Errorf("synthesis metrics wrong: %+v", m)
	}
	if m.FanInLC <= 0 || m.FanInLCExact <= 0 {
		t.Errorf("FanInLC missing: %+v", m)
	}
	if m.FreqMHz <= 0 || m.AreaL <= 0 || m.AreaS <= 0 || m.PowerD <= 0 || m.PowerS <= 0 {
		t.Errorf("physical metrics missing: %+v", m)
	}
	for _, metric := range dataset.AllMetrics {
		if _, err := m.Value(metric); err != nil {
			t.Error(err)
		}
	}
	if _, err := m.Value("bogus"); err == nil {
		t.Error("expected error for unknown metric")
	}
	if mm := m.MetricMap(); len(mm) != len(dataset.AllMetrics) {
		t.Errorf("MetricMap size = %d", len(mm))
	}
	if _, err := MeasureComponent(d, "nosuch", false, Options{}); err == nil {
		t.Error("measuring an unknown module: expected error")
	}
}
