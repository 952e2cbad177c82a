package measure

import "testing"

func TestMinimizeParamsCounterWidth(t *testing.T) {
	// A plain width parameter has no loops/conditionals tied to it:
	// the minimum non-degenerate width is 1 ([W-1:0] with W=0 fails).
	d := design(t, `
module cnt #(parameter W = 32) (input clk, output reg [W-1:0] q);
  always @(posedge clk) q <= q + 1;
endmodule`)
	p, err := MinimizeParamsN(d, "cnt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p["W"] != 1 {
		t.Errorf("W minimized to %d, want 1", p["W"])
	}
}

func TestMinimizeParamsRespectsGenerateLoop(t *testing.T) {
	// The loop runs N-1 times, so N=1 would optimize it away; the
	// minimum is N=2.
	d := design(t, `
module m #(parameter N = 16) (input [N-1:0] a, output [N-1:0] y);
  assign y[0] = a[0];
  genvar i;
  generate for (i = 1; i < N; i = i + 1) begin : g
    assign y[i] = a[i] ^ a[i-1];
  end endgenerate
endmodule`)
	p, err := MinimizeParamsN(d, "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p["N"] != 2 {
		t.Errorf("N minimized to %d, want 2", p["N"])
	}
}

func TestMinimizeParamsRespectsGenerateIf(t *testing.T) {
	// The then-branch needs P > 4; minimization must not cross to 4.
	d := design(t, `
module m #(parameter P = 64) (input a, output y);
  generate if (P > 4) begin : big
    assign y = a;
  end else begin : small
    assign y = ~a;
  end endgenerate
endmodule`)
	p, err := MinimizeParamsN(d, "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p["P"] != 5 {
		t.Errorf("P minimized to %d, want 5", p["P"])
	}
}

func TestMinimizeParamsMemoryDepth(t *testing.T) {
	// Depth 1 degenerates a memory; minimum is 2.
	d := design(t, `
module m #(parameter D = 256) (input clk, input [7:0] addr, input [3:0] wd, output [3:0] rd);
  reg [3:0] mem [0:D-1];
  always @(posedge clk) mem[addr] <= wd;
  assign rd = mem[addr];
endmodule`)
	p, err := MinimizeParamsN(d, "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p["D"] != 2 {
		t.Errorf("D minimized to %d, want 2", p["D"])
	}
}

func TestMinimizeParamsInteraction(t *testing.T) {
	// AW derives from D through the port; minimizing D must keep
	// elaboration valid with AW's own minimum.
	d := design(t, `
module m #(parameter D = 16, parameter AW = 4) (input [AW-1:0] addr, input clk, input [3:0] wd, output [3:0] rd);
  reg [3:0] mem [0:D-1];
  always @(posedge clk) mem[addr] <= wd;
  assign rd = mem[addr];
endmodule`)
	p, err := MinimizeParamsN(d, "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p["D"] != 2 || p["AW"] != 1 {
		t.Errorf("minimized to D=%d AW=%d, want D=2 AW=1", p["D"], p["AW"])
	}
}

func TestMeasureComponentAccountingReducesMetrics(t *testing.T) {
	d := design(t, replicatedDesign)
	with, err := MeasureComponent(d, "quad", true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := MeasureComponent(d, "quad", false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Four identical ALUs: accounting drops three of them.
	if with.DedupedInstances != 3 {
		t.Errorf("deduped = %d, want 3", with.DedupedInstances)
	}
	if with.Metrics.Cells >= without.Metrics.Cells {
		t.Errorf("accounting must reduce Cells: %d vs %d", with.Metrics.Cells, without.Metrics.Cells)
	}
	if with.Metrics.FanInLCExact >= without.Metrics.FanInLCExact {
		t.Errorf("accounting must reduce FanInLC: %d vs %d", with.Metrics.FanInLCExact, without.Metrics.FanInLCExact)
	}
	// Software metrics are identical in both modes (Section 5.3).
	if with.Metrics.Stmts != without.Metrics.Stmts || with.Metrics.LoC != without.Metrics.LoC {
		t.Errorf("software metrics must not change: %+v vs %+v", with.Metrics, without.Metrics)
	}
	if len(with.UniqueModules) != 2 {
		t.Errorf("unique modules = %v", with.UniqueModules)
	}
}

func TestMeasureComponentParameterScaling(t *testing.T) {
	// A single-instance design whose only inflation is parameters:
	// accounting shrinks W to 1, cutting the synthesis metrics.
	d := design(t, `
module wide #(parameter W = 32) (input [W-1:0] a, b, output [W-1:0] s);
  assign s = a + b;
endmodule`)
	with, err := MeasureComponent(d, "wide", true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := MeasureComponent(d, "wide", false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if with.MinimizedParams["W"] != 1 {
		t.Errorf("W = %d, want 1", with.MinimizedParams["W"])
	}
	if with.Metrics.Cells >= without.Metrics.Cells/8 {
		t.Errorf("scaling should shrink cells dramatically: %d vs %d", with.Metrics.Cells, without.Metrics.Cells)
	}
}

func TestMeasureComponentDifferentParamsNotDeduped(t *testing.T) {
	// Two instances of the same module at different parameters are
	// different design efforts? No — the paper counts the *component*
	// once (the parameterized code is written once). Our signature
	// includes parameters, so differently-parameterized instances both
	// remain. This test pins that behaviour.
	d := design(t, `
module add #(parameter W = 4) (input [W-1:0] a, b, output [W-1:0] s);
  assign s = a + b;
endmodule
module two (input [3:0] a, b, input [7:0] c, d, output [3:0] s1, output [7:0] s2);
  add #(.W(4)) u0 (.a(a), .b(b), .s(s1));
  add #(.W(8)) u1 (.a(c), .b(d), .s(s2));
endmodule`)
	with, err := MeasureComponent(d, "two", true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if with.DedupedInstances != 0 {
		t.Errorf("deduped = %d, want 0 (different parameterizations)", with.DedupedInstances)
	}
}
