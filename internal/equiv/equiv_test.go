package equiv

import (
	"testing"

	"repro/internal/hdl"
)

func equivSrc(t *testing.T, src, top string, cycles int) {
	t.Helper()
	d, err := hdl.ParseDesign(map[string]string{"t.v": src})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckEquivalence(d, top, nil, cycles, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != cycles {
		t.Errorf("ran %d cycles, want %d", res.Cycles, cycles)
	}
}

func TestEquivalenceCombinational(t *testing.T) {
	equivSrc(t, `
module mix (input [7:0] a, b, input [2:0] n, input s, output [8:0] o1, output [7:0] o2, o3, o4, output o5);
  assign o1 = a + b;
  assign o2 = s ? (a << n) : (b >> n);
  assign o3 = a * b;
  assign o4 = {a[3:0], b[7:4]};
  assign o5 = (a < b) && (a != 0) || ^b;
endmodule`, "mix", 50)
}

func TestEquivalenceSequential(t *testing.T) {
	equivSrc(t, `
module seq (input clk, input rst, en, input [7:0] d, output reg [7:0] q, output reg [3:0] cnt);
  always @(posedge clk) begin
    if (rst) begin
      q <= 0;
      cnt <= 0;
    end else if (en) begin
      q <= d;
      cnt <= cnt + 1;
    end
  end
endmodule`, "seq", 60)
}

func TestEquivalenceCaseAndLoops(t *testing.T) {
	equivSrc(t, `
module casetest (input clk, input [1:0] op, input [7:0] a, b, output reg [7:0] y, output [7:0] rev);
  reg [7:0] t;
  integer i;
  always @(*) begin
    case (op)
      2'd0: y = a + b;
      2'd1: y = a - b;
      2'd2: y = a & b;
      default: y = a | b;
    endcase
  end
  always @(*) begin
    for (i = 0; i < 8; i = i + 1)
      t[i] = a[7 - i];
  end
  assign rev = t;
endmodule`, "casetest", 40)
}

func TestEquivalenceMemoryDesign(t *testing.T) {
	equivSrc(t, `
module rf (input clk, we, input [1:0] wa, ra1, ra2, input [7:0] wd, output [7:0] r1, r2, output [8:0] sum);
  reg [7:0] m [0:3];
  always @(posedge clk) if (we) m[wa] <= wd;
  assign r1 = m[ra1];
  assign r2 = m[ra2];
  assign sum = r1 + r2;
endmodule`, "rf", 60)
}

func TestEquivalenceHierarchyPipeline(t *testing.T) {
	equivSrc(t, `
module stage (input clk, input [7:0] d, output reg [7:0] q);
  always @(posedge clk) q <= d;
endmodule
module pipe (input clk, input [7:0] din, output [7:0] dout);
  wire [7:0] w0, w1, w2;
  stage s0 (.clk(clk), .d(din), .q(w0));
  stage s1 (.clk(clk), .d(w0), .q(w1));
  stage s2 (.clk(clk), .d(w1), .q(w2));
  assign dout = w2;
endmodule`, "pipe", 30)
}

func TestEquivalenceGenerateAdder(t *testing.T) {
	equivSrc(t, `
module fulladd (input a, b, cin, output s, cout);
  assign s = a ^ b ^ cin;
  assign cout = (a & b) | ((a ^ b) & cin);
endmodule
module rca #(parameter W = 8) (input [W-1:0] a, b, output [W-1:0] s, output cout);
  wire [W:0] c;
  assign c[0] = 0;
  genvar i;
  generate for (i = 0; i < W; i = i + 1) begin : g
    fulladd fa (.a(a[i]), .b(b[i]), .cin(c[i]), .s(s[i]), .cout(c[i+1]));
  end endgenerate
  assign cout = c[W];
endmodule`, "rca", 40)
}

func TestEquivalenceLatch(t *testing.T) {
	equivSrc(t, `
module lt (input en, input [3:0] d, output reg [3:0] q);
  always @(*) if (en) q = d;
endmodule`, "lt", 40)
}

func TestEquivalenceVariableIndex(t *testing.T) {
	equivSrc(t, `
module vi (input clk, input [7:0] a, input [2:0] sel, input bitv, output y, output reg [7:0] w);
  assign y = a[sel];
  always @(posedge clk) w[sel] <= bitv;
endmodule`, "vi", 50)
}

func TestEquivalenceWithParameterOverride(t *testing.T) {
	src := `
module cnt #(parameter W = 4) (input clk, input rst, output reg [W-1:0] q);
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= q + 1;
  end
endmodule`
	d, err := hdl.ParseDesign(map[string]string{"t.v": src})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int64{1, 3, 12} {
		if _, err := CheckEquivalence(d, "cnt", map[string]int64{"W": w}, 40, 7); err != nil {
			t.Errorf("W=%d: %v", w, err)
		}
	}
}

// TestEquivalenceLoopVariableSelects pins synthesis and the RTL
// interpreter to one reading of selects whose bounds use a procedural
// loop variable: part selects on both sides of an assignment, inside a
// concatenation, and bit indices. Both must evaluate the bounds with
// the loop variable in scope, on the right-hand side as on the left.
func TestEquivalenceLoopVariableSelects(t *testing.T) {
	equivSrc(t, `
module lps (input clk, input [7:0] a, output reg [7:0] y, z, output reg [7:0] q);
  integer i;
  always @(*) begin
    for (i = 0; i < 4; i = i + 1)
      y[2*i+1:2*i] = a[2*i+1:2*i];
  end
  always @(*) begin
    for (i = 0; i < 4; i = i + 1)
      z[2*i+1:2*i] = {a[2*i], a[7-2*i:7-2*i]} ^ a[i+4];
  end
  always @(posedge clk) begin
    for (i = 0; i < 8; i = i + 1)
      q[i] <= a[7-i:7-i] + y[i];
  end
endmodule`, "lps", 40)
}
