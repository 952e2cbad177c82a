package power

import (
	"testing"

	"repro/internal/hdl"
	"repro/internal/netlist"
	"repro/internal/stdcell"
	"repro/internal/synth"
)

func netlistOf(t *testing.T, src, top string, overrides map[string]int64) *netlist.Netlist {
	t.Helper()
	d, err := hdl.ParseDesign(map[string]string{"t.v": src})
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.Synthesize(d, top, overrides)
	if err != nil {
		t.Fatal(err)
	}
	return r.Optimized
}

func TestPowerScalesWithSize(t *testing.T) {
	lib := stdcell.Default180nm()
	src := `
module add #(parameter W = 8) (input [W-1:0] a, b, output [W-1:0] s);
  assign s = a + b;
endmodule`
	small := AnalyzeWS(netlistOf(t, src, "add", map[string]int64{"W": 4}), lib, 100, nil)
	big := AnalyzeWS(netlistOf(t, src, "add", map[string]int64{"W": 32}), lib, 100, nil)
	if big.DynamicMW <= small.DynamicMW {
		t.Errorf("dynamic power must grow with size: %v vs %v", small.DynamicMW, big.DynamicMW)
	}
	if big.StaticUW <= small.StaticUW {
		t.Errorf("static power must grow with size: %v vs %v", small.StaticUW, big.StaticUW)
	}
}

func TestPowerScalesWithFrequency(t *testing.T) {
	lib := stdcell.Default180nm()
	nl := netlistOf(t, `
module m (input [7:0] a, b, output [7:0] y);
  assign y = a ^ b;
endmodule`, "m", nil)
	p100 := AnalyzeWS(nl, lib, 100, nil)
	p200 := AnalyzeWS(nl, lib, 200, nil)
	if p200.DynamicMW <= p100.DynamicMW {
		t.Error("dynamic power must scale with frequency")
	}
	// Leakage is frequency independent.
	if p200.StaticUW != p100.StaticUW {
		t.Error("static power must not depend on frequency")
	}
	// Linear scaling.
	ratio := p200.DynamicMW / p100.DynamicMW
	if ratio < 1.99 || ratio > 2.01 {
		t.Errorf("frequency scaling ratio = %v, want 2", ratio)
	}
}

func TestPowerConstantLogicConsumesNothingDynamic(t *testing.T) {
	lib := stdcell.Default180nm()
	// Output tied to a constant: everything folds away, so dynamic
	// power is zero.
	nl := netlistOf(t, `
module m (input a, output y);
  assign y = a & 1'b0;
endmodule`, "m", nil)
	p := AnalyzeWS(nl, lib, 100, nil)
	if p.DynamicMW != 0 {
		t.Errorf("dynamic power = %v, want 0 for constant design", p.DynamicMW)
	}
}

func TestPowerRAMContributes(t *testing.T) {
	lib := stdcell.Default180nm()
	ram := netlistOf(t, `
module m (input clk, we, input [3:0] wa, ra, input [7:0] wd, output [7:0] rd);
  reg [7:0] mem [0:15];
  always @(posedge clk) if (we) mem[wa] <= wd;
  assign rd = mem[ra];
endmodule`, "m", nil)
	p := AnalyzeWS(ram, lib, 100, nil)
	if p.DynamicMW <= 0 {
		t.Error("RAM design must consume dynamic power")
	}
	if p.StaticUW <= 0 {
		t.Error("RAM design must leak")
	}
}

func TestPowerProbabilitiesBounded(t *testing.T) {
	lib := stdcell.Default180nm()
	// A deep mixed design; the estimate must stay finite and positive.
	nl := netlistOf(t, `
module m (input clk, input [15:0] a, b, output reg [15:0] acc);
  always @(posedge clk) acc <= acc + (a ^ b) * 3;
endmodule`, "m", nil)
	p := AnalyzeWS(nl, lib, 250, nil)
	if p.DynamicMW <= 0 || p.DynamicMW > 1e6 {
		t.Errorf("dynamic power = %v not plausible", p.DynamicMW)
	}
}
