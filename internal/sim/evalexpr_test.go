package sim

import (
	"strings"
	"testing"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/synth"
)

// exprHarness builds a module computing y = <expr> over fixed inputs
// and returns the settled output.
func exprHarness(t *testing.T, expr string, width int, inputs map[string]uint64) uint64 {
	t.Helper()
	src := `
module h (input [15:0] a, input [15:0] b, input [3:0] c, input s, output [` +
		itoa(width-1) + `:0] y);
  assign y = ` + expr + `;
endmodule`
	d, err := hdl.ParseDesign(map[string]string{"h.v": src})
	if err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	inst, _, err := elab.ElaborateOpts(d, "h", nil, elab.Options{})
	if err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	r, err := NewRTLSim(inst)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range inputs {
		if err := r.SetInput(name, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Eval(); err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	got, err := r.Output("y")
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func itoa(v int) string {
	digits := "0123456789"
	if v == 0 {
		return "0"
	}
	var out []byte
	for v > 0 {
		out = append([]byte{digits[v%10]}, out...)
		v /= 10
	}
	return string(out)
}

func TestRTLSimExpressionCatalog(t *testing.T) {
	in := map[string]uint64{"a": 0xBEEF, "b": 0x1234, "c": 9, "s": 1}
	cases := []struct {
		expr  string
		width int
		want  uint64
	}{
		{"a + b", 16, (0xBEEF + 0x1234) & 0xFFFF},
		{"a - b", 16, (0xBEEF - 0x1234) & 0xFFFF},
		{"a * b", 16, (0xBEEF * 0x1234) & 0xFFFF},
		{"a / 4", 16, 0xBEEF / 4},
		{"a % 8", 16, 0xBEEF % 8},
		{"a & b", 16, 0xBEEF & 0x1234},
		{"a | b", 16, 0xBEEF | 0x1234},
		{"a ^ b", 16, 0xBEEF ^ 0x1234},
		{"a ~^ b", 16, ^(uint64(0xBEEF) ^ 0x1234) & 0xFFFF},
		{"~a", 16, ^uint64(0xBEEF) & 0xFFFF},
		{"-b", 16, (^uint64(0x1234) + 1) & 0xFFFF},
		{"a << 3", 16, (0xBEEF << 3) & 0xFFFF},
		{"a >> c", 16, 0xBEEF >> 9},
		{"a << c", 16, (0xBEEF << 9) & 0xFFFF},
		{"a == b", 1, 0},
		{"a != b", 1, 1},
		{"a < b", 1, 0},
		{"a <= a", 1, 1},
		{"a > b", 1, 1},
		{"b >= a", 1, 0},
		{"a && 0", 1, 0},
		{"a || 0", 1, 1},
		{"!a", 1, 0},
		{"&c", 1, 0}, // 9 = 0b1001
		{"|c", 1, 1},
		{"^c", 1, 0}, // parity of 0b1001
		{"~&c", 1, 1},
		{"~|c", 1, 0},
		{"~^c", 1, 1},
		{"s ? a : b", 16, 0xBEEF},
		{"a[3]", 1, 1},                 // 0xBEEF bit 3
		{"a[c]", 1, (0xBEEF >> 9) & 1}, // variable bit select
		{"a[11:4]", 8, (0xBEEF >> 4) & 0xFF},
		{"{c, a[3:0]}", 8, 9<<4 | 0xF},
		{"{2{c}}", 8, 9<<4 | 9},
		{"(a + b) >> 1", 16, ((0xBEEF + 0x1234) & 0xFFFF) >> 1}, // width-limited intermediate
	}
	for _, c := range cases {
		if got := exprHarness(t, c.expr, c.width, in); got != c.want {
			t.Errorf("%q = %#x, want %#x", c.expr, got, c.want)
		}
	}
}

func TestRTLSimPeek(t *testing.T) {
	inst := elaborate(t, `
module p (input [7:0] a, output [7:0] y);
  wire [7:0] mid;
  assign mid = a + 1;
  assign y = mid * 2;
endmodule`, "p")
	r, err := NewRTLSim(inst)
	if err != nil {
		t.Fatal(err)
	}
	r.SetInput("a", 10)
	if err := r.Eval(); err != nil {
		t.Fatal(err)
	}
	v, ok := r.vals["p.mid"]
	if !ok || v != 11 {
		t.Errorf("p.mid = %v, %v", v, ok)
	}
	if _, ok := r.vals["p.nosuch"]; ok {
		t.Error("unknown net has a value")
	}
}

func TestRTLSimOutOfRangeDynamicAccess(t *testing.T) {
	// Reading past the end of a vector yields 0 (no X state); writing
	// past the end is dropped.
	inst := elaborate(t, `
module o (input clk, input [3:0] idx, input [7:0] a, input bitv, output y, output reg [7:0] w);
  assign y = a[idx];
  always @(posedge clk) w[idx] <= bitv;
endmodule`, "o")
	r, err := NewRTLSim(inst)
	if err != nil {
		t.Fatal(err)
	}
	r.SetInput("a", 0xFF)
	r.SetInput("idx", 12) // beyond bit 7
	if err := r.Eval(); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Output("y"); got != 0 {
		t.Errorf("out-of-range read = %d, want 0", got)
	}
	r.SetInput("bitv", 1)
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Output("w"); got != 0 {
		t.Errorf("out-of-range write must be dropped, w = %#x", got)
	}
}

func TestRTLSimDivisionByNonPowerOfTwoRejected(t *testing.T) {
	inst := elaborate(t, `
module d (input [7:0] a, output [7:0] y);
  assign y = a / 3;
endmodule`, "d")
	r, err := NewRTLSim(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Eval(); err == nil || !strings.Contains(err.Error(), "powers of two") {
		t.Fatalf("want power-of-two error, got %v", err)
	}
}

func TestGateSimResetClearsState(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"t.v": `
module g (input clk, input [3:0] din, output reg [3:0] q);
  always @(posedge clk) q <= q + din;
endmodule`})
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := elab.ElaborateOpts(d, "g", nil, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = inst
	// Build gates and run, then reset.
	gsim := gateSimOf(t, d)
	gsim.SetInput("din", 3)
	gsim.Step()
	gsim.Step()
	if got, _ := gsim.Output("q"); got != 6 {
		t.Fatalf("q = %d", got)
	}
	gsim.Reset()
	if got, _ := gsim.Output("q"); got != 0 {
		t.Errorf("q after reset = %d", got)
	}
	if names := gsim.InputNames(); len(names) != 2 {
		t.Errorf("inputs = %v", names)
	}
	if names := gsim.OutputNames(); len(names) != 1 || names[0] != "q" {
		t.Errorf("outputs = %v", names)
	}
}

// gateSimOf synthesizes module "g" of the design and wraps it in a
// gate-level simulator.
func gateSimOf(t *testing.T, d *hdl.Design) *GateSim {
	t.Helper()
	res, err := synth.Synthesize(d, "g", nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGateSim(res.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
