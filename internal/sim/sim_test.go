package sim

import (
	"strings"
	"testing"

	"repro/internal/elab"
	"repro/internal/hdl"
)

func elaborate(t *testing.T, src, top string) *elab.Instance {
	t.Helper()
	d, err := hdl.ParseDesign(map[string]string{"t.v": src})
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := elab.ElaborateOpts(d, top, nil, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestRTLSimCombinational(t *testing.T) {
	inst := elaborate(t, `
module comb (input [7:0] a, b, output [8:0] sum, output [7:0] x);
  assign sum = a + b;
  assign x = (a & b) | (a ^ b);
endmodule`, "comb")
	r, err := NewRTLSim(inst)
	if err != nil {
		t.Fatal(err)
	}
	r.SetInput("a", 200)
	r.SetInput("b", 100)
	if err := r.Eval(); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Output("sum"); got != 300 {
		t.Errorf("sum = %d, want 300", got)
	}
	if got, _ := r.Output("x"); got != (200&100)|(200^100) {
		t.Errorf("x = %d", got)
	}
}

func TestRTLSimCounterAndHierarchy(t *testing.T) {
	inst := elaborate(t, `
module counter #(parameter W = 4) (input clk, rst, output reg [W-1:0] q);
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= q + 1;
  end
endmodule
module pair (input clk, rst, output [3:0] q1, output [3:0] q2);
  counter c1 (.clk(clk), .rst(rst), .q(q1));
  counter c2 (.clk(clk), .rst(rst), .q(q2));
endmodule`, "pair")
	r, err := NewRTLSim(inst)
	if err != nil {
		t.Fatal(err)
	}
	r.SetInput("rst", 0)
	for i := 1; i <= 5; i++ {
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := r.Output("q1"); got != 5 {
		t.Errorf("q1 = %d, want 5", got)
	}
	if got, _ := r.Output("q2"); got != 5 {
		t.Errorf("q2 = %d, want 5", got)
	}
	r.SetInput("rst", 1)
	r.Step()
	if got, _ := r.Output("q1"); got != 0 {
		t.Errorf("q1 after reset = %d", got)
	}
}

func TestRTLSimBlockingVsNonblocking(t *testing.T) {
	// Classic swap test: nonblocking swaps, blocking copies.
	inst := elaborate(t, `
module swap (input clk, input [3:0] seed, input load, output reg [3:0] x, y);
  always @(posedge clk) begin
    if (load) begin
      x <= seed;
      y <= 0;
    end else begin
      x <= y;
      y <= x;
    end
  end
endmodule`, "swap")
	r, err := NewRTLSim(inst)
	if err != nil {
		t.Fatal(err)
	}
	r.SetInput("seed", 9)
	r.SetInput("load", 1)
	r.Step()
	r.SetInput("load", 0)
	r.Step()
	x, _ := r.Output("x")
	y, _ := r.Output("y")
	if x != 0 || y != 9 {
		t.Errorf("after swap: x=%d y=%d, want 0 9", x, y)
	}
	r.Step()
	x, _ = r.Output("x")
	y, _ = r.Output("y")
	if x != 9 || y != 0 {
		t.Errorf("after second swap: x=%d y=%d, want 9 0", x, y)
	}
}

func TestRTLSimMemory(t *testing.T) {
	inst := elaborate(t, `
module mem8 (input clk, we, input [2:0] wa, ra, input [7:0] wd, output [7:0] rd);
  reg [7:0] m [0:7];
  always @(posedge clk) if (we) m[wa] <= wd;
  assign rd = m[ra];
endmodule`, "mem8")
	r, err := NewRTLSim(inst)
	if err != nil {
		t.Fatal(err)
	}
	r.SetInput("we", 1)
	for i := uint64(0); i < 4; i++ {
		r.SetInput("wa", i)
		r.SetInput("wd", i*11)
		if err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	r.SetInput("we", 0)
	for i := uint64(0); i < 4; i++ {
		r.SetInput("ra", i)
		if err := r.Eval(); err != nil {
			t.Fatal(err)
		}
		if got, _ := r.Output("rd"); got != i*11 {
			t.Errorf("m[%d] = %d, want %d", i, got, i*11)
		}
	}
}

func TestRTLSimLatchSemantics(t *testing.T) {
	inst := elaborate(t, `
module lat (input en, input [3:0] d, output reg [3:0] q);
  always @(*) begin
    if (en) q = d;
  end
endmodule`, "lat")
	r, err := NewRTLSim(inst)
	if err != nil {
		t.Fatal(err)
	}
	r.SetInput("en", 1)
	r.SetInput("d", 7)
	r.Eval()
	if got, _ := r.Output("q"); got != 7 {
		t.Errorf("transparent q = %d", got)
	}
	r.SetInput("en", 0)
	r.SetInput("d", 1)
	r.Eval()
	if got, _ := r.Output("q"); got != 7 {
		t.Errorf("held q = %d, want 7", got)
	}
}

func TestRTLSimRejectsWideNets(t *testing.T) {
	inst := elaborate(t, `
module wide (input [99:0] a, output [99:0] y);
  assign y = a;
endmodule`, "wide")
	if _, err := NewRTLSim(inst); err == nil || !strings.Contains(err.Error(), "64") {
		t.Fatalf("want width error, got %v", err)
	}
}

func TestGateSimUnknownPorts(t *testing.T) {
	inst := elaborate(t, `
module m (input a, output y);
  assign y = ~a;
endmodule`, "m")
	r, err := NewRTLSim(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetInput("nosuch", 1); err == nil {
		t.Error("expected error for unknown input")
	}
	if _, err := r.Output("nosuch"); err == nil {
		t.Error("expected error for unknown output")
	}
}
