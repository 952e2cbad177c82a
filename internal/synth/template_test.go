package synth_test

import (
	"slices"
	"testing"

	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/synth"
)

// TestTemplateStampingBitIdentical proves the tentpole invariant for
// template-stamped lowering: for every corpus component, in both
// dedup modes, the stamped pipeline produces byte-for-byte the same
// raw and optimized netlists as direct lowering with templates
// disabled. Netlist.Hash() keys the persistent measurement cache, so
// any drift here would silently fork cached results from fresh ones.
func TestTemplateStampingBitIdentical(t *testing.T) {
	totalStamped := 0
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		for _, dedup := range []bool{false, true} {
			lower := func(noTmpl bool) (*netlist.Netlist, *netlist.Netlist, synth.LowerStats) {
				inst, _, err := elab.ElaborateOpts(d, c.Top, nil, elab.Options{})
				if err != nil {
					t.Fatalf("%s: %v", c.Label(), err)
				}
				raw, ls, err := synth.LowerOpts(inst, synth.LowerOptions{
					DedupInstances:   dedup,
					DisableTemplates: noTmpl,
				})
				if err != nil {
					t.Fatalf("%s: %v", c.Label(), err)
				}
				opt, _, err := netlist.OptimizeWS(raw, nil)
				if err != nil {
					t.Fatalf("%s: %v", c.Label(), err)
				}
				return raw, opt, ls
			}
			sRaw, sOpt, sStats := lower(false)
			dRaw, dOpt, dStats := lower(true)
			if sRaw.Hash() != dRaw.Hash() {
				t.Errorf("%s dedup=%t: stamped raw hash diverges from direct lowering", c.Label(), dedup)
			}
			if sOpt.Hash() != dOpt.Hash() {
				t.Errorf("%s dedup=%t: stamped optimized hash diverges from direct lowering", c.Label(), dedup)
			}
			if sStats.Deduped != dStats.Deduped {
				t.Errorf("%s dedup=%t: Deduped %d with stamping, %d without",
					c.Label(), dedup, sStats.Deduped, dStats.Deduped)
			}
			if dStats.Stamped != 0 {
				t.Errorf("%s dedup=%t: DisableTemplates reported %d stamped", c.Label(), dedup, dStats.Stamped)
			}
			totalStamped += sStats.Stamped
		}
	}
	// The corpus has repeated child instances; if no template ever
	// fires, stamping is silently disabled and the speedup is gone.
	if totalStamped == 0 {
		t.Error("no instance in the corpus was template-stamped")
	}
	t.Logf("stamped %d instances across the corpus", totalStamped)
}

// TestStampedCopiesMergeUnderCSE exercises the optimizer across
// template boundaries: two stamped copies of the same module fed the
// same inputs must CSE into one, just as directly-lowered copies do.
func TestStampedCopiesMergeUnderCSE(t *testing.T) {
	src := `
module leaf (input [3:0] a, b, output [3:0] y);
  assign y = a ^ b;
endmodule
module pair (input [3:0] a, b, output [3:0] y0, y1);
  leaf u0 (.a(a), .b(b), .y(y0));
  leaf u1 (.a(a), .b(b), .y(y1));
endmodule`
	d, err := hdl.ParseDesign(map[string]string{"t.v": src})
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(d, "pair", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stamped != 1 {
		t.Errorf("Stamped = %d, want 1 (u1 replays u0's template)", res.Stamped)
	}
	// Identical inputs: the 4 XORs of the stamp merge with the 4 of
	// the original, leaving 4 cells.
	if got := len(res.Optimized.Cells); got != 4 {
		t.Errorf("optimized cells = %d, want 4 after cross-copy CSE", got)
	}
	inst, rep, err := elab.ElaborateOpts(d, "pair", nil, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := synth.SynthesizeInstance(inst, rep, synth.LowerOptions{DisableTemplates: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimized.Hash() != direct.Optimized.Hash() {
		t.Error("stamped and direct optimized netlists diverge")
	}
}

// TestStampingUnconnectedAndConstPorts covers template keying across
// binding shapes. A constant-tied input changes what the body's
// lowering can observe, so it must not share a template with a
// net-bound one; an unconnected output does not (binding happens
// before recording), so it may.
func TestStampingUnconnectedAndConstPorts(t *testing.T) {
	src := `
module leaf (input [1:0] a, b, output [1:0] y, output co);
  assign {co, y} = a + b;
endmodule
module mix (input [1:0] a, b, output [1:0] y0, y1, y2, y3, output c0);
  leaf u0 (.a(a),     .b(b),     .y(y0), .co(c0));
  leaf u1 (.a(a),     .b(b),     .y(y1), .co());
  leaf u2 (.a(2'b00), .b(b),     .y(y2), .co());
  leaf u3 (.a(2'b00), .b(b),     .y(y3), .co());
endmodule`
	d, err := hdl.ParseDesign(map[string]string{"t.v": src})
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(d, "mix", nil)
	if err != nil {
		t.Fatal(err)
	}
	// u1 replays u0 (unconnected co still binds a fresh net, same
	// pattern) and u3 replays u2 (same constant pattern). u2 must NOT
	// reuse u0's template: its a is constant, a different pattern.
	if res.Stamped != 2 {
		t.Errorf("Stamped = %d, want 2 (u1 and u3 match earlier shapes)", res.Stamped)
	}
	inst, rep, err := elab.ElaborateOpts(d, "mix", nil, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := synth.SynthesizeInstance(inst, rep, synth.LowerOptions{DisableTemplates: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Raw.Hash() != direct.Raw.Hash() {
		t.Error("stamped and direct raw netlists diverge")
	}
	if res.Optimized.Hash() != direct.Optimized.Hash() {
		t.Error("stamped and direct optimized netlists diverge")
	}
	// Functional check through the simulator: constant-tied copies
	// compute b+0, the full copies a+b.
	g, err := sim.NewGateSim(res.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	g.SetInput("a", 3)
	g.SetInput("b", 2)
	if err := g.Eval(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{"y0": 1, "y1": 1, "y2": 2, "y3": 2, "c0": 1} {
		if got, _ := g.Output(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestStampingNestedHierarchy checks that a template recorded for a
// mid-level module replays its whole subtree, including nested
// children, and that a RAM macro inside a stamped subtree is the
// stamped instance's own macro, wired to that instance's nets.
func TestStampingNestedHierarchy(t *testing.T) {
	src := `
module cell (input clk, input [1:0] wa, ra, input [3:0] wd, output [3:0] rd);
  reg [3:0] mem [0:3];
  always @(posedge clk) mem[wa] <= wd;
  assign rd = mem[ra];
endmodule
module bank (input clk, input [1:0] wa, ra, input [3:0] wd, output [3:0] rd);
  cell c0 (.clk(clk), .wa(wa), .ra(ra), .wd(wd), .rd(rd));
endmodule
module top (input clk, input [1:0] wa, ra, input [3:0] wd0, wd1, output [3:0] rd0, rd1);
  bank b0 (.clk(clk), .wa(wa), .ra(ra), .wd(wd0), .rd(rd0));
  bank b1 (.clk(clk), .wa(wa), .ra(ra), .wd(wd1), .rd(rd1));
endmodule`
	d, err := hdl.ParseDesign(map[string]string{"t.v": src})
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(d, "top", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stamped != 1 {
		t.Errorf("Stamped = %d, want 1 (b1 replays b0's subtree)", res.Stamped)
	}
	inst, rep, err := elab.ElaborateOpts(d, "top", nil, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := synth.SynthesizeInstance(inst, rep, synth.LowerOptions{DisableTemplates: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Raw.Hash() != direct.Raw.Hash() {
		t.Error("stamped and direct raw netlists diverge")
	}
	if rams := res.Raw.RAMs; len(rams) != 2 {
		t.Errorf("%d RAM macros, want one per bank", len(rams))
	} else if slices.Equal(rams[0].WritePorts[0].Data, rams[1].WritePorts[0].Data) {
		t.Errorf("both RAM macros write data nets %v; want each bank's own", rams[0].WritePorts[0].Data)
	}
}
