package synth

import (
	"testing"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/netlist"
	"repro/internal/sim"
)

const dedupSrc = `
module leafalu #(parameter W = 8) (input [W-1:0] a, b, output [W-1:0] y);
  assign y = a + b;
endmodule
module quad (input [7:0] a, b, c, d, output [7:0] y0, y1);
  leafalu #(.W(8)) u0 (.a(a), .b(b), .y(y0));
  leafalu #(.W(8)) u1 (.a(c), .b(d), .y(y1));
endmodule`

func TestLowerOptsDedupInstances(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"t.v": dedupSrc})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Synthesize(d, "quad", nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, rep, err := elab.ElaborateOpts(d, "quad", nil, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deduped, err := SynthesizeInstance(inst, rep, LowerOptions{DedupInstances: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Deduped != 0 {
		t.Errorf("plain lowering reported %d deduped", full.Deduped)
	}
	if deduped.Deduped != 1 {
		t.Errorf("deduped = %d, want 1", deduped.Deduped)
	}
	if len(deduped.Optimized.Cells) >= len(full.Optimized.Cells) {
		t.Errorf("dedup must shrink the netlist: %d vs %d cells",
			len(deduped.Optimized.Cells), len(full.Optimized.Cells))
	}
	// The duplicate's outputs alias the representative's: y1 mirrors
	// y0's function of (a, b), not (c, d).
	g, err := sim.NewGateSim(deduped.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	g.SetInput("a", 7)
	g.SetInput("b", 8)
	g.SetInput("c", 100)
	g.SetInput("d", 100)
	if err := g.Eval(); err != nil {
		t.Fatal(err)
	}
	y0, _ := g.Output("y0")
	y1, _ := g.Output("y1")
	if y0 != 15 || y1 != 15 {
		t.Errorf("y0=%d y1=%d, want both 15 (shared representative)", y0, y1)
	}
}

func TestChildSignatureDistinguishesParams(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"t.v": `
module leafalu #(parameter W = 8) (input [W-1:0] a, b, output [W-1:0] y);
  assign y = a + b;
endmodule
module two (input [3:0] a, b, input [7:0] c, d, output [3:0] y0, output [7:0] y1);
  leafalu #(.W(4)) u0 (.a(a), .b(b), .y(y0));
  leafalu #(.W(8)) u1 (.a(c), .b(d), .y(y1));
endmodule`})
	if err != nil {
		t.Fatal(err)
	}
	inst, rep, err := elab.ElaborateOpts(d, "two", nil, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SynthesizeInstance(inst, rep, LowerOptions{DedupInstances: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped != 0 {
		t.Errorf("different parameterizations must not dedup, got %d", res.Deduped)
	}
}

func TestSynthNegationAndSubConst(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"t.v": `
module neg (input clk, input [7:0] a, input [2:0] idx, input [3:0] wd, output [7:0] y, output [3:0] rd);
  assign y = -a;
  // A memory with a non-zero minimum index exercises address rebasing.
  reg [3:0] mem [2:9];
  always @(posedge clk) mem[idx + 2] <= wd;
  assign rd = mem[idx + 2];
endmodule`})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(d, "neg", nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.NewGateSim(res.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	g.SetInput("a", 5)
	if err := g.Eval(); err != nil {
		t.Fatal(err)
	}
	if got, _ := g.Output("y"); got != (256-5)&0xFF {
		t.Errorf("-5 = %d, want %d", got, 251)
	}
	// Write/read through the offset memory.
	g.SetInput("idx", 3)
	g.SetInput("wd", 9)
	if err := g.Step(); err != nil {
		t.Fatal(err)
	}
	if got, _ := g.Output("rd"); got != 9 {
		t.Errorf("offset memory readback = %d, want 9", got)
	}
}

func TestLowerPlainWrapper(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"t.v": `
module m (input a, output y);
  assign y = ~a;
endmodule`})
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := elab.ElaborateOpts(d, "m", nil, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nl, _, err := LowerOpts(inst, LowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(nl.Cells) != 1 || nl.Cells[0].Type != netlist.Inv {
		t.Errorf("cells = %+v", nl.Cells)
	}
}

func TestSynthUnsupportedConstructErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"inout port", `module m (inout a, input b); endmodule`},
		{"mixed blocking", `module m (input clk, d, output reg q);
  always @(posedge clk) begin q = d; q <= d; end
endmodule`},
		{"nb in comb", `module m (input d, output reg q);
  always @(*) q <= d;
endmodule`},
		{"mem write in comb", `module m (input [1:0] a, input [3:0] wd, output [3:0] rd);
  reg [3:0] mem [0:3];
  always @(*) mem[a] <= wd;
endmodule`},
		{"blocking mem write", `module m (input clk, input [1:0] a, input [3:0] wd, output [3:0] rd);
  reg [3:0] mem [0:3];
  always @(posedge clk) mem[a] = wd;
  assign rd = mem[a];
endmodule`},
	}
	for _, c := range cases {
		d, err := hdl.ParseDesign(map[string]string{"t.v": c.src})
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		if _, err := Synthesize(d, "m", nil); err == nil {
			t.Errorf("%s: expected synthesis error", c.name)
		}
	}
}

func TestSynthWideLiteralWidths(t *testing.T) {
	// Unsized literals default to 32 bits and interact with narrower
	// contexts via truncation.
	d, err := hdl.ParseDesign(map[string]string{"t.v": `
module m (input [3:0] a, output [3:0] y, output z);
  assign y = a + 300;    // 300 truncates to 4 bits (= 12)
  assign z = a == 20;    // compare extends a to literal width
endmodule`})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(d, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.NewGateSim(res.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	g.SetInput("a", 5)
	if err := g.Eval(); err != nil {
		t.Fatal(err)
	}
	if got, _ := g.Output("y"); got != (5+300)&0xF {
		t.Errorf("y = %d, want %d", got, (5+300)&0xF)
	}
	if got, _ := g.Output("z"); got != 0 {
		t.Errorf("4-bit a can never equal 20: z = %d", got)
	}
}

func TestOptimizeIdempotentOnCorpusStyleNetlist(t *testing.T) {
	// Optimize runs to fixpoint, so a second invocation must change
	// nothing — checked on a datapath with foldable structure.
	d, err := hdl.ParseDesign(map[string]string{"t.v": benchSrc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(d, "bench", nil)
	if err != nil {
		t.Fatal(err)
	}
	again, stats, err := netlist.OptimizeWS(res.Optimized, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ConstFolded != 0 || stats.Merged != 0 || stats.DeadRemoved != 0 {
		t.Errorf("second Optimize changed the netlist: %+v", stats)
	}
	if len(again.Cells) != len(res.Optimized.Cells) {
		t.Errorf("cell count changed: %d vs %d", len(again.Cells), len(res.Optimized.Cells))
	}
}
