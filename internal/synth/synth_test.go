package synth

import (
	"strings"
	"testing"

	"repro/internal/hdl"
	"repro/internal/sim"
)

func synthesize(t *testing.T, src, top string, overrides map[string]int64) *Result {
	t.Helper()
	d, err := hdl.ParseDesign(map[string]string{"test.v": src})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Synthesize(d, top, overrides)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func gatesim(t *testing.T, r *Result) *sim.GateSim {
	t.Helper()
	g, err := sim.NewGateSim(r.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSynthAdder(t *testing.T) {
	r := synthesize(t, `
module adder #(parameter W = 8) (input [W-1:0] a, b, output [W:0] sum);
  assign sum = a + b;
endmodule`, "adder", nil)
	g := gatesim(t, r)
	cases := [][3]uint64{{0, 0, 0}, {1, 2, 3}, {255, 1, 256}, {200, 100, 300}, {255, 255, 510}}
	for _, c := range cases {
		if err := g.SetInput("a", c[0]); err != nil {
			t.Fatal(err)
		}
		if err := g.SetInput("b", c[1]); err != nil {
			t.Fatal(err)
		}
		if err := g.Eval(); err != nil {
			t.Fatal(err)
		}
		got, err := g.Output("sum")
		if err != nil {
			t.Fatal(err)
		}
		if got != c[2] {
			t.Errorf("%d + %d = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestSynthSubMulCompare(t *testing.T) {
	r := synthesize(t, `
module ops (input [7:0] a, b, output [7:0] diff, prod, output lt, eq, ge);
  assign diff = a - b;
  assign prod = a * b;
  assign lt = a < b;
  assign eq = a == b;
  assign ge = a >= b;
endmodule`, "ops", nil)
	g := gatesim(t, r)
	for _, c := range [][2]uint64{{5, 3}, {3, 5}, {7, 7}, {255, 1}, {0, 0}, {200, 50}} {
		g.SetInput("a", c[0])
		g.SetInput("b", c[1])
		if err := g.Eval(); err != nil {
			t.Fatal(err)
		}
		checkOut := func(name string, want uint64) {
			t.Helper()
			got, err := g.Output(name)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("a=%d b=%d: %s = %d, want %d", c[0], c[1], name, got, want)
			}
		}
		checkOut("diff", (c[0]-c[1])&0xFF)
		checkOut("prod", (c[0]*c[1])&0xFF)
		checkOut("lt", b2u(c[0] < c[1]))
		checkOut("eq", b2u(c[0] == c[1]))
		checkOut("ge", b2u(c[0] >= c[1]))
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestSynthShifts(t *testing.T) {
	r := synthesize(t, `
module sh (input [7:0] a, input [2:0] n, output [7:0] l, rr, lc);
  assign l = a << n;
  assign rr = a >> n;
  assign lc = a << 3;
endmodule`, "sh", nil)
	g := gatesim(t, r)
	for _, c := range [][2]uint64{{0xFF, 0}, {0xFF, 3}, {0x81, 7}, {0x0F, 4}, {1, 1}} {
		g.SetInput("a", c[0])
		g.SetInput("n", c[1])
		if err := g.Eval(); err != nil {
			t.Fatal(err)
		}
		if got, _ := g.Output("l"); got != (c[0]<<c[1])&0xFF {
			t.Errorf("a=%#x n=%d: l = %#x, want %#x", c[0], c[1], got, (c[0]<<c[1])&0xFF)
		}
		if got, _ := g.Output("rr"); got != c[0]>>c[1] {
			t.Errorf("a=%#x n=%d: rr = %#x, want %#x", c[0], c[1], got, c[0]>>c[1])
		}
		if got, _ := g.Output("lc"); got != (c[0]<<3)&0xFF {
			t.Errorf("a=%#x: lc = %#x", c[0], got)
		}
	}
}

func TestSynthCounter(t *testing.T) {
	r := synthesize(t, `
module counter #(parameter W = 4) (input clk, rst, en, output reg [W-1:0] q);
  always @(posedge clk) begin
    if (rst)
      q <= 0;
    else if (en)
      q <= q + 1;
  end
endmodule`, "counter", nil)
	if got := r.Optimized.NumFFs(); got != 4 {
		t.Errorf("FFs = %d, want 4", got)
	}
	g := gatesim(t, r)
	g.SetInput("clk", 0)
	g.SetInput("rst", 1)
	g.SetInput("en", 0)
	if err := g.Step(); err != nil {
		t.Fatal(err)
	}
	g.SetInput("rst", 0)
	g.SetInput("en", 1)
	for i := 1; i <= 20; i++ {
		if err := g.Step(); err != nil {
			t.Fatal(err)
		}
		if got, _ := g.Output("q"); got != uint64(i%16) {
			t.Fatalf("after %d steps q = %d, want %d", i, got, i%16)
		}
	}
	// Disable: q holds.
	g.SetInput("en", 0)
	g.Step()
	g.Step()
	if got, _ := g.Output("q"); got != 4 {
		t.Errorf("hold failed: q = %d, want 4", got)
	}
}

func TestSynthCaseALU(t *testing.T) {
	r := synthesize(t, `
module alu (input [1:0] op, input [7:0] a, b, output reg [7:0] y);
  always @(*) begin
    case (op)
      2'd0: y = a + b;
      2'd1: y = a - b;
      2'd2: y = a & b;
      default: y = a ^ b;
    endcase
  end
endmodule`, "alu", nil)
	// Complete assignment: no latches.
	for _, c := range r.Optimized.Cells {
		if c.Type.IsSequential() {
			t.Fatalf("unexpected sequential cell %s in pure comb ALU", c.Type)
		}
	}
	g := gatesim(t, r)
	for _, tc := range []struct{ op, a, b, want uint64 }{
		{0, 10, 20, 30}, {1, 20, 5, 15}, {2, 0xF0, 0x3C, 0x30}, {3, 0xF0, 0x3C, 0xCC},
	} {
		g.SetInput("op", tc.op)
		g.SetInput("a", tc.a)
		g.SetInput("b", tc.b)
		if err := g.Eval(); err != nil {
			t.Fatal(err)
		}
		if got, _ := g.Output("y"); got != tc.want {
			t.Errorf("op=%d a=%d b=%d: y=%d, want %d", tc.op, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSynthLatchInference(t *testing.T) {
	r := synthesize(t, `
module lat (input en, input [3:0] d, output reg [3:0] q);
  always @(*) begin
    if (en)
      q = d;
  end
endmodule`, "lat", nil)
	latches := 0
	for _, c := range r.Optimized.Cells {
		if c.Type.String() == "LATCH" {
			latches++
		}
	}
	if latches != 4 {
		t.Fatalf("latches = %d, want 4", latches)
	}
	g := gatesim(t, r)
	g.SetInput("en", 1)
	g.SetInput("d", 9)
	if err := g.Eval(); err != nil {
		t.Fatal(err)
	}
	if got, _ := g.Output("q"); got != 9 {
		t.Errorf("transparent: q = %d, want 9", got)
	}
	g.SetInput("en", 0)
	g.SetInput("d", 3)
	if err := g.Eval(); err != nil {
		t.Fatal(err)
	}
	if got, _ := g.Output("q"); got != 9 {
		t.Errorf("opaque: q = %d, want 9 (held)", got)
	}
}

func TestSynthHierarchyGenerate(t *testing.T) {
	r := synthesize(t, `
module fulladd (input a, b, cin, output s, cout);
  assign s = a ^ b ^ cin;
  assign cout = (a & b) | ((a ^ b) & cin);
endmodule
module rca #(parameter W = 6) (input [W-1:0] a, b, output [W-1:0] s, output cout);
  wire [W:0] c;
  assign c[0] = 0;
  genvar i;
  generate for (i = 0; i < W; i = i + 1) begin : g
    fulladd fa (.a(a[i]), .b(b[i]), .cin(c[i]), .s(s[i]), .cout(c[i+1]));
  end endgenerate
  assign cout = c[W];
endmodule`, "rca", nil)
	g := gatesim(t, r)
	for _, c := range [][2]uint64{{0, 0}, {31, 1}, {63, 63}, {21, 42}} {
		g.SetInput("a", c[0])
		g.SetInput("b", c[1])
		if err := g.Eval(); err != nil {
			t.Fatal(err)
		}
		sum := c[0] + c[1]
		if got, _ := g.Output("s"); got != sum&63 {
			t.Errorf("a=%d b=%d: s=%d, want %d", c[0], c[1], got, sum&63)
		}
		if got, _ := g.Output("cout"); got != sum>>6 {
			t.Errorf("a=%d b=%d: cout=%d, want %d", c[0], c[1], got, sum>>6)
		}
	}
}

func TestSynthMemory(t *testing.T) {
	r := synthesize(t, `
module regfile #(parameter D = 8, parameter W = 8) (
  input clk, we,
  input [2:0] waddr, raddr,
  input [W-1:0] wdata,
  output [W-1:0] rdata
);
  reg [W-1:0] mem [0:D-1];
  always @(posedge clk) begin
    if (we)
      mem[waddr] <= wdata;
  end
  assign rdata = mem[raddr];
endmodule`, "regfile", nil)
	if len(r.Optimized.RAMs) != 1 {
		t.Fatalf("RAMs = %d, want 1", len(r.Optimized.RAMs))
	}
	ram := r.Optimized.RAMs[0]
	if ram.Width != 8 || ram.Depth != 8 || len(ram.ReadPorts) != 1 {
		t.Fatalf("RAM = %+v", ram)
	}
	g := gatesim(t, r)
	// Write 3 values, then read them back.
	g.SetInput("we", 1)
	for i := uint64(0); i < 3; i++ {
		g.SetInput("waddr", i)
		g.SetInput("wdata", 100+i)
		if err := g.Step(); err != nil {
			t.Fatal(err)
		}
	}
	g.SetInput("we", 0)
	for i := uint64(0); i < 3; i++ {
		g.SetInput("raddr", i)
		if err := g.Eval(); err != nil {
			t.Fatal(err)
		}
		if got, _ := g.Output("rdata"); got != 100+i {
			t.Errorf("mem[%d] = %d, want %d", i, got, 100+i)
		}
	}
}

func TestSynthVariableIndex(t *testing.T) {
	r := synthesize(t, `
module vidx (input [7:0] a, input [2:0] sel, input clk, input bitv, output y, output reg [7:0] w);
  assign y = a[sel];
  always @(posedge clk)
    w[sel] <= bitv;
endmodule`, "vidx", nil)
	g := gatesim(t, r)
	g.SetInput("a", 0b10100101)
	for s := uint64(0); s < 8; s++ {
		g.SetInput("sel", s)
		if err := g.Eval(); err != nil {
			t.Fatal(err)
		}
		want := (uint64(0b10100101) >> s) & 1
		if got, _ := g.Output("y"); got != want {
			t.Errorf("a[%d] = %d, want %d", s, got, want)
		}
	}
	// Sequential bit writes: set bits 2 and 5.
	g.SetInput("bitv", 1)
	g.SetInput("sel", 2)
	g.Step()
	g.SetInput("sel", 5)
	g.Step()
	if got, _ := g.Output("w"); got != (1<<2)|(1<<5) {
		t.Errorf("w = %#x, want 0x24", got)
	}
}

func TestSynthForLoopReverse(t *testing.T) {
	r := synthesize(t, `
module rev (input [7:0] a, output reg [7:0] y);
  integer i;
  always @(*) begin
    for (i = 0; i < 8; i = i + 1)
      y[i] = a[7 - i];
  end
endmodule`, "rev", nil)
	g := gatesim(t, r)
	g.SetInput("a", 0b00000001)
	if err := g.Eval(); err != nil {
		t.Fatal(err)
	}
	if got, _ := g.Output("y"); got != 0b10000000 {
		t.Errorf("y = %#b", got)
	}
	g.SetInput("a", 0b11001010)
	g.Eval()
	if got, _ := g.Output("y"); got != 0b01010011 {
		t.Errorf("y = %#b, want 01010011", got)
	}
}

func TestSynthConcatLHSAndTernary(t *testing.T) {
	r := synthesize(t, `
module cc (input [7:0] a, b, input s, output reg carry, output reg [7:0] sum, output [7:0] m);
  assign m = s ? a : b;
  always @(*) begin
    {carry, sum} = a + b;
  end
endmodule`, "cc", nil)
	g := gatesim(t, r)
	g.SetInput("a", 200)
	g.SetInput("b", 100)
	g.SetInput("s", 1)
	if err := g.Eval(); err != nil {
		t.Fatal(err)
	}
	if got, _ := g.Output("sum"); got != (300 & 0xFF) {
		t.Errorf("sum = %d", got)
	}
	if got, _ := g.Output("carry"); got != 1 {
		t.Errorf("carry = %d", got)
	}
	if got, _ := g.Output("m"); got != 200 {
		t.Errorf("m = %d, want a=200", got)
	}
	g.SetInput("s", 0)
	g.Eval()
	if got, _ := g.Output("m"); got != 100 {
		t.Errorf("m = %d, want b=100", got)
	}
}

func TestSynthReductionsAndLogic(t *testing.T) {
	r := synthesize(t, `
module red (input [3:0] a, b, output rall, rany, rpar, land, lor);
  assign rall = &a;
  assign rany = |a;
  assign rpar = ^a;
  assign land = a && b;
  assign lor = a || b;
endmodule`, "red", nil)
	g := gatesim(t, r)
	for _, c := range [][2]uint64{{0, 0}, {15, 0}, {7, 3}, {8, 0}, {5, 5}} {
		g.SetInput("a", c[0])
		g.SetInput("b", c[1])
		if err := g.Eval(); err != nil {
			t.Fatal(err)
		}
		check := func(name string, want uint64) {
			t.Helper()
			if got, _ := g.Output(name); got != want {
				t.Errorf("a=%d b=%d: %s = %d, want %d", c[0], c[1], name, got, want)
			}
		}
		check("rall", b2u(c[0] == 15))
		check("rany", b2u(c[0] != 0))
		par := uint64(0)
		for x := c[0]; x != 0; x &= x - 1 {
			par ^= 1
		}
		check("rpar", par)
		check("land", b2u(c[0] != 0 && c[1] != 0))
		check("lor", b2u(c[0] != 0 || c[1] != 0))
	}
}

func TestSynthDivModByPowerOfTwo(t *testing.T) {
	r := synthesize(t, `
module dm (input [7:0] a, output [7:0] q, rem);
  assign q = a / 4;
  assign rem = a % 4;
endmodule`, "dm", nil)
	g := gatesim(t, r)
	for _, a := range []uint64{0, 3, 4, 17, 255} {
		g.SetInput("a", a)
		if err := g.Eval(); err != nil {
			t.Fatal(err)
		}
		if got, _ := g.Output("q"); got != a/4 {
			t.Errorf("%d/4 = %d", a, got)
		}
		if got, _ := g.Output("rem"); got != a%4 {
			t.Errorf("%d%%4 = %d", a, got)
		}
	}
}

func TestSynthDivByNonPowerOfTwoRejected(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"t.v": `
module bad (input [7:0] a, output [7:0] q);
  assign q = a / 3;
endmodule`})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(d, "bad", nil); err == nil || !strings.Contains(err.Error(), "powers of two") {
		t.Fatalf("want power-of-two error, got %v", err)
	}
}

// TestSynthMemoryElementTargetRejected pins the error for an output
// port or continuous assignment that targets an element of a declared
// wire array: it names the unsupported construct, not an undeclared
// signal.
func TestSynthMemoryElementTargetRejected(t *testing.T) {
	for name, body := range map[string]string{
		"port": `genvar i;
  generate for (i = 0; i < N; i = i + 1) begin : g
    cell c (.a(a), .b(b), .y(t[i]));
  end endgenerate`,
		"assign": `assign t[1] = a;`,
	} {
		d, err := hdl.ParseDesign(map[string]string{"t.v": `
module cell (input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = a ^ b;
endmodule
module top #(parameter N = 2) (input [3:0] a, input [3:0] b, output [3:0] y);
  wire [3:0] t [0:N-1];
  ` + body + `
  assign y = t[0];
endmodule`})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Synthesize(d, "top", nil)
		if err == nil || !strings.Contains(err.Error(), `"t" is a memory`) || strings.Contains(err.Error(), "undeclared") {
			t.Errorf("%s: error %v, want the memory-element target error", name, err)
		}
	}
}

func TestSynthMultipleDriversRejected(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"t.v": `
module md (input a, b, output y);
  assign y = a;
  assign y = b;
endmodule`})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(d, "md", nil); err == nil {
		t.Fatal("expected multiple-driver error")
	}
}

func TestSynthAsyncResetPattern(t *testing.T) {
	// Async resets are modeled as synchronous; behaviour under a held
	// reset must still clear the register.
	r := synthesize(t, `
module ar (input clk, rst_n, input [3:0] d, output reg [3:0] q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      q <= 0;
    else
      q <= d;
  end
endmodule`, "ar", nil)
	g := gatesim(t, r)
	g.SetInput("rst_n", 1)
	g.SetInput("d", 11)
	g.Step()
	if got, _ := g.Output("q"); got != 11 {
		t.Errorf("q = %d, want 11", got)
	}
	g.SetInput("rst_n", 0)
	g.Step()
	if got, _ := g.Output("q"); got != 0 {
		t.Errorf("q after reset = %d, want 0", got)
	}
}

func TestSynthParameterChangesStructure(t *testing.T) {
	src := `
module cnt #(parameter W = 4) (input clk, output reg [W-1:0] q);
  always @(posedge clk) q <= q + 1;
endmodule`
	small := synthesize(t, src, "cnt", map[string]int64{"W": 2})
	big := synthesize(t, src, "cnt", map[string]int64{"W": 16})
	if small.Optimized.NumFFs() != 2 || big.Optimized.NumFFs() != 16 {
		t.Errorf("FFs = %d / %d, want 2 / 16", small.Optimized.NumFFs(), big.Optimized.NumFFs())
	}
	ss, bs := small.Optimized.Stats(), big.Optimized.Stats()
	if bs.Cells <= ss.Cells || bs.Nets <= ss.Nets {
		t.Errorf("wider counter must be bigger: %+v vs %+v", ss, bs)
	}
}

func TestSynthUnconnectedPorts(t *testing.T) {
	r := synthesize(t, `
module leaf (input a, b, output x, y);
  assign x = a & b;
  assign y = a | b;
endmodule
module top (input p, output q);
  leaf u (.a(p), .b(), .x(q), .y());
endmodule`, "top", nil)
	g := gatesim(t, r)
	// b tied to 0 ⇒ q = p & 0 = 0 always; the optimizer may fold it.
	g.SetInput("p", 1)
	if err := g.Eval(); err != nil {
		t.Fatal(err)
	}
	if got, _ := g.Output("q"); got != 0 {
		t.Errorf("q = %d, want 0 (b tied off)", got)
	}
}
