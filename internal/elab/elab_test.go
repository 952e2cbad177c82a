package elab

import (
	"strings"
	"testing"

	"repro/internal/hdl"
)

func design(t *testing.T, sources map[string]string) *hdl.Design {
	t.Helper()
	d, err := hdl.ParseDesign(sources)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestElaborateSimpleModule(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module m #(parameter W = 8) (input clk, input [W-1:0] a, output reg [W-1:0] q);
  wire [W-1:0] t;
  assign t = a + 1;
  always @(posedge clk) q <= t;
endmodule`})
	inst, _, err := ElaborateOpts(d, "m", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Params["W"] != 8 {
		t.Errorf("W = %d", inst.Params["W"])
	}
	if n := inst.Nets["a"]; n == nil || n.Width != 8 || !n.IsPort {
		t.Errorf("net a = %+v", n)
	}
	if n := inst.Nets["t"]; n == nil || n.Width != 8 {
		t.Errorf("net t = %+v", n)
	}
	if len(inst.Assigns) != 1 || len(inst.Alwayses) != 1 {
		t.Errorf("assigns=%d alwayses=%d", len(inst.Assigns), len(inst.Alwayses))
	}
}

func TestElaborateParameterOverride(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module m #(parameter W = 8, parameter HALF = W / 2) (input [W-1:0] a, output [HALF-1:0] y);
  assign y = a[HALF-1:0];
endmodule`})
	inst, _, err := ElaborateOpts(d, "m", map[string]int64{"W": 16}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Params["W"] != 16 {
		t.Errorf("W = %d", inst.Params["W"])
	}
	// HALF's default references W, so it must see the override.
	if inst.Params["HALF"] != 8 {
		t.Errorf("HALF = %d, want 8", inst.Params["HALF"])
	}
	if inst.Nets["y"].Width != 8 {
		t.Errorf("y width = %d", inst.Nets["y"].Width)
	}
	if _, _, err := ElaborateOpts(d, "m", map[string]int64{"NOPE": 1}, Options{}); err == nil {
		t.Error("expected unknown-parameter error")
	}
}

func TestElaborateHierarchy(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module leaf #(parameter W = 2) (input [W-1:0] a, output [W-1:0] y);
  assign y = ~a;
endmodule
module top #(parameter N = 3) (input [N-1:0] x, output [N-1:0] z);
  leaf #(.W(N)) u (.a(x), .y(z));
endmodule`})
	inst, _, err := ElaborateOpts(d, "top", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Children) != 1 {
		t.Fatalf("children = %d", len(inst.Children))
	}
	c := inst.Children[0]
	if c.Name != "u" || c.Inst.Params["W"] != 3 {
		t.Errorf("child = %s, W = %d", c.Name, c.Inst.Params["W"])
	}
	if c.Inst.Path != "top.u" {
		t.Errorf("path = %q", c.Inst.Path)
	}
	if inst.CountInstances() != 2 {
		t.Errorf("CountInstances = %d", inst.CountInstances())
	}
}

func TestElaborateGenForUnrolling(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module bit (input a, output y);
  assign y = ~a;
endmodule
module vec #(parameter N = 4) (input [N-1:0] a, output [N-1:0] y);
  genvar i;
  generate for (i = 0; i < N; i = i + 1) begin : g
    wire t;
    bit u (.a(a[i]), .y(t));
    assign y[i] = t;
  end endgenerate
endmodule`})
	inst, rep, err := ElaborateOpts(d, "vec", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Children) != 4 {
		t.Fatalf("children = %d, want 4", len(inst.Children))
	}
	if inst.Children[2].Name != "g[2].u" {
		t.Errorf("child 2 name = %q", inst.Children[2].Name)
	}
	if _, ok := inst.Nets["g[3].t"]; !ok {
		t.Errorf("missing scoped net g[3].t; nets = %v", inst.Nets)
	}
	if len(inst.Assigns) != 4 {
		t.Errorf("assigns = %d, want 4", len(inst.Assigns))
	}
	// The loop must be recorded alive.
	found := false
	for k, c := range rep.Constructs {
		if c.Kind == "genfor" {
			found = true
			if !c.Alive {
				t.Errorf("%s not alive", k)
			}
		}
	}
	if !found {
		t.Error("no genfor construct recorded")
	}
}

func TestElaborateGenForZeroIterations(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module vec #(parameter N = 0) (input a, output y);
  assign y = a;
  genvar i;
  generate for (i = 0; i < N; i = i + 1) begin : g
    wire t;
  end endgenerate
endmodule`})
	_, rep, err := ElaborateOpts(d, "vec", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Constructs {
		if c.Kind == "genfor" && c.Alive {
			t.Error("zero-trip loop recorded alive")
		}
	}
}

func TestElaborateGenIfBranches(t *testing.T) {
	src := map[string]string{"m.v": `
module m #(parameter P = 4) (input a, output y);
  generate if (P > 2) begin : big
    assign y = a;
  end else begin : small
    assign y = ~a;
  end endgenerate
endmodule`}
	d := design(t, src)
	_, repBig, err := ElaborateOpts(d, "m", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, repSmall, err := ElaborateOpts(d, "m", map[string]int64{"P": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok, reason := repBig.CompatibleWith(repSmall)
	if ok {
		t.Error("branch flip must be incompatible")
	}
	if !strings.Contains(reason, "then") {
		t.Errorf("reason = %q", reason)
	}
	// Same parameterization is always self-compatible.
	if ok, reason := repBig.CompatibleWith(repBig); !ok {
		t.Errorf("self-compatibility failed: %s", reason)
	}
	// P=3 keeps the then-branch: compatible.
	_, rep3, err := ElaborateOpts(d, "m", map[string]int64{"P": 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := repBig.CompatibleWith(rep3); !ok {
		t.Errorf("P=3 should be compatible: %s", reason)
	}
}

func TestElaborateLoopCollapseIncompatible(t *testing.T) {
	src := map[string]string{"m.v": `
module m #(parameter N = 4) (input [7:0] a, output [7:0] y);
  assign y = a;
  genvar i;
  generate for (i = 1; i < N; i = i + 1) begin : g
    wire t;
  end endgenerate
endmodule`}
	d := design(t, src)
	_, ref, err := ElaborateOpts(d, "m", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// N=1 gives zero iterations: the loop is optimized away.
	_, cand, err := ElaborateOpts(d, "m", map[string]int64{"N": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := ref.CompatibleWith(cand); ok {
		t.Error("loop collapse must be incompatible")
	}
	// N=2 keeps one iteration: compatible.
	_, cand2, err := ElaborateOpts(d, "m", map[string]int64{"N": 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := ref.CompatibleWith(cand2); !ok {
		t.Errorf("N=2 should be compatible: %s", reason)
	}
}

func TestElaborateBehavioralSignature(t *testing.T) {
	src := map[string]string{"m.v": `
module m #(parameter MODE = 1) (input clk, input [3:0] a, output reg [3:0] q);
  always @(posedge clk) begin
    if (MODE == 1)
      q <= a;
    else
      q <= ~a;
    if (a[0])
      q <= 4'd0;
  end
endmodule`}
	d := design(t, src)
	_, ref, err := ElaborateOpts(d, "m", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var constIf, sigIf Construct
	var haveConstIf, haveSigIf bool
	for _, c := range ref.Constructs {
		if c.Kind != "if" {
			continue
		}
		if c.NonConst {
			sigIf, haveSigIf = c, true
		} else {
			constIf, haveConstIf = c, true
		}
	}
	if !haveConstIf || !constIf.Branches["then"] {
		t.Errorf("constant if: %+v", constIf)
	}
	if !haveSigIf {
		t.Error("signal-dependent if not recorded as NonConst")
	}
	_ = sigIf
	// MODE=0 flips the constant branch: incompatible.
	_, cand, err := ElaborateOpts(d, "m", map[string]int64{"MODE": 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := ref.CompatibleWith(cand); ok {
		t.Error("behavioral branch flip must be incompatible")
	}
}

func TestElaborateMemory(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module m #(parameter D = 16, parameter W = 8) (input clk, input [3:0] addr, input [W-1:0] din, output [W-1:0] dout);
  reg [W-1:0] mem [0:D-1];
  always @(posedge clk) mem[addr] <= din;
  assign dout = mem[addr];
endmodule`})
	inst, rep, err := ElaborateOpts(d, "m", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem := inst.Mems["mem"]
	if mem == nil || mem.Width != 8 || mem.Depth != 16 {
		t.Fatalf("mem = %+v", mem)
	}
	// Depth 1 degenerates the memory.
	_, cand, err := ElaborateOpts(d, "m", map[string]int64{"D": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := rep.CompatibleWith(cand); ok {
		t.Error("depth-1 memory must be incompatible")
	}
	_, cand2, err := ElaborateOpts(d, "m", map[string]int64{"D": 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := rep.CompatibleWith(cand2); !ok {
		t.Errorf("depth-2 memory should be compatible: %s", reason)
	}
}

func TestElaborateErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"zero width", `module m #(parameter W = 0) (input [W-1:0] a, output y); assign y = a; endmodule`, "degenerate range"},
		{"undeclared genvar", `module m (input a); generate for (i = 0; i < 2; i = i + 1) begin : g wire t; end endgenerate endmodule`, "genvar"},
		{"stuck loop", `module m #(parameter N = 2) (input a); genvar i; generate for (i = 0; i < N; i = i + 0) begin : g wire t; end endgenerate endmodule`, "advance"},
		{"recursion", `module m (input a); m u (.a(a)); endmodule`, "recursive"},
		{"bad port", `module leaf (input a); endmodule
module top (input x); leaf u (.nosuch(x)); endmodule`, "no port"},
		{"bad param", `module leaf #(parameter W = 1) (input a); endmodule
module top (input x); leaf #(.V(2)) u (.a(x)); endmodule`, "no parameter"},
		{"dup net", `module m (input a); wire t; wire t; endmodule`, "duplicate"},
		{"non-const width", `module m (input a, input [a:0] b); endmodule`, "not an elaboration-time constant"},
	}
	for _, c := range cases {
		d := design(t, map[string]string{"m.v": c.src})
		top := "m"
		if strings.Contains(c.src, "module top") {
			top = "top"
		}
		_, _, err := ElaborateOpts(d, top, nil, Options{})
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.wantSub)
		}
	}
}

func TestEvalOperators(t *testing.T) {
	env := NewEnv(map[string]int64{"W": 8, "N": 3})
	cases := []struct {
		src  string
		want int64
	}{
		{"W + N", 11}, {"W - N", 5}, {"W * N", 24}, {"W / N", 2}, {"W % N", 2},
		{"W > N", 1}, {"W < N", 0}, {"W >= 8", 1}, {"W <= 7", 0},
		{"W == 8", 1}, {"W != 8", 0},
		{"W & N", 0}, {"W | N", 11}, {"W ^ N", 11},
		{"W && 0", 0}, {"W || 0", 1}, {"!W", 0},
		{"1 << N", 8}, {"W >> 2", 2},
		{"W > 4 ? 100 : 200", 100},
		{"-N", -3}, {"~0", -1},
		{"(W + 1) * 2", 18},
	}
	for _, c := range cases {
		// Parse the expression by wrapping it in a throwaway module.
		src := "module t (input a, output [(" + c.src + "):0] y); endmodule"
		sf, err := hdl.Parse("t.v", src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		got, err := Eval(sf.Modules[0].Ports[1].Range.MSB, env)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	env := NewEnv(map[string]int64{"Z": 0})
	mk := func(src string) hdl.Expr {
		sf, err := hdl.Parse("t.v", "module t (input a, output ["+src+":0] y); endmodule")
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		return sf.Modules[0].Ports[1].Range.MSB
	}
	if _, err := Eval(mk("5 / Z"), env); err == nil {
		t.Error("expected division-by-zero error")
	}
	if _, err := Eval(mk("5 % Z"), env); err == nil {
		t.Error("expected modulo-by-zero error")
	}
	if _, err := Eval(mk("1 << 99"), env); err == nil {
		t.Error("expected shift-range error")
	}
	if _, err := Eval(mk("sig"), env); err == nil {
		t.Error("expected not-constant error")
	}
	var nc *ErrNotConstant
	_, err := Eval(mk("sig"), env)
	if !asErr(err, &nc) || nc.Name != "sig" {
		t.Errorf("want ErrNotConstant{sig}, got %v", err)
	}
}

func asErr(err error, target interface{}) bool {
	switch t := target.(type) {
	case **ErrNotConstant:
		for e := err; e != nil; {
			if v, ok := e.(*ErrNotConstant); ok {
				*t = v
				return true
			}
			u, ok := e.(interface{ Unwrap() error })
			if !ok {
				return false
			}
			e = u.Unwrap()
		}
	}
	return false
}

func TestEnvScoping(t *testing.T) {
	root := NewEnv(map[string]int64{"W": 8})
	child := root.Child("g[0].", map[string]int64{"i": 0})
	if v, ok := child.Lookup("W"); !ok || v != 8 {
		t.Error("child must see parent constants")
	}
	if v, ok := child.Lookup("i"); !ok || v != 0 {
		t.Error("child must see own constants")
	}
	if _, ok := root.Lookup("i"); ok {
		t.Error("parent must not see child constants")
	}
	ps := child.Prefixes()
	if len(ps) != 2 || ps[0] != "g[0]." || ps[1] != "" {
		t.Errorf("prefixes = %v", ps)
	}
	if err := child.Define("i", 1); err == nil {
		t.Error("redefinition must fail")
	}
}

func TestReportString(t *testing.T) {
	r := NewReport()
	r.recordLoop("genfor", hdl.Pos{File: "a.v", Line: 3, Col: 1}, 4)
	r.recordBranch("genif", hdl.Pos{File: "a.v", Line: 9, Col: 1}, "then")
	s := r.String()
	if !strings.Contains(s, "genfor@a.v:3:1 alive=true") {
		t.Errorf("report string:\n%s", s)
	}
	if !strings.Contains(s, "branches=[then]") {
		t.Errorf("report string:\n%s", s)
	}
}
