package elab

import (
	"strings"
	"testing"

	"repro/internal/hdl"
)

func TestInstanceHelpers(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module child (input a, output y);
  assign y = ~a;
endmodule
module m #(parameter W = 4) (input clk, input [W-1:0] a, output [W-1:0] y);
  integer i;
  reg [W-1:0] scratch;
  reg [3:0] mem [0:7];
  wire t;
  child u (.a(a[0]), .y(t));
  always @(posedge clk) begin
    for (i = 0; i < W; i = i + 1)
      scratch[i] <= a[i];
    mem[a[2:0]] <= 4'd1;
  end
  assign y = scratch;
endmodule`})
	inst, _, err := ElaborateOpts(d, "m", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(inst.Params)

	if m, ok := inst.ResolveMem("mem", env); !ok || m.Depth != 8 {
		t.Errorf("ResolveMem = %+v, %v", m, ok)
	}
	if _, ok := inst.ResolveMem("nosuch", env); ok {
		t.Error("ResolveMem must miss")
	}
	if !inst.IsIntVar("i") || inst.IsIntVar("scratch") {
		t.Error("IsIntVar misclassifies")
	}
	ports := inst.PortNets()
	if len(ports) != 3 || ports[0].Name != "clk" {
		t.Errorf("PortNets = %+v", ports)
	}
	if s := inst.String(); !strings.Contains(s, "m") {
		t.Errorf("String = %q", s)
	}
	if inst.CountInstances() != 2 {
		t.Errorf("CountInstances = %d", inst.CountInstances())
	}
}

func TestIsConstant(t *testing.T) {
	env := NewEnv(map[string]int64{"W": 8})
	d := design(t, map[string]string{"m.v": `
module m #(parameter W = 8) (input [W-1:0] a, output [W-1:0] y);
  assign y = a + W;
endmodule`})
	inst, _, err := ElaborateOpts(d, "m", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ca := inst.Assigns[0]
	// The RHS (a + W) references a signal: not constant. Its right
	// operand (W) is.
	if _, err := Eval(ca.Item.RHS, env); err == nil {
		t.Error("a + W must not be constant")
	}
	if v, err := Eval(ca.Item.RHS.(*hdl.Binary).R, env); err != nil || v != 8 {
		t.Errorf("W evaluates to %d, %v; want 8", v, err)
	}
}

func TestBehavioralForTripCountInSignature(t *testing.T) {
	src := map[string]string{"m.v": `
module m #(parameter N = 8) (input [7:0] a, output reg [7:0] y);
  integer i;
  always @(*) begin
    y = 0;
    for (i = 0; i < N; i = i + 1)
      y = y ^ (a >> i);
  end
endmodule`}
	d := design(t, src)
	_, ref, err := ElaborateOpts(d, "m", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	foundFor := false
	for _, c := range ref.Constructs {
		if c.Kind == "for" {
			foundFor = true
			if !c.Alive {
				t.Error("N=8 loop must be alive")
			}
		}
	}
	if !foundFor {
		t.Fatal("behavioral for loop not in the signature")
	}
	// N=0 collapses the loop: incompatible.
	_, cand, err := ElaborateOpts(d, "m", map[string]int64{"N": 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := ref.CompatibleWith(cand); ok {
		t.Error("zero-trip behavioral loop must be incompatible")
	}
	// N=1 keeps it alive: compatible.
	_, cand1, err := ElaborateOpts(d, "m", map[string]int64{"N": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := ref.CompatibleWith(cand1); !ok {
		t.Errorf("N=1 should be compatible: %s", reason)
	}
}

// TestNestedForLoopsInSignature pins that the signature walk unrolls
// procedural loops as synthesis does: an inner loop bounded by the
// outer loop's variable is a constant loop, alive at the defaults, and
// the scaling rule sees it collapse when the outer bound drops to 1.
func TestNestedForLoopsInSignature(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module m #(parameter N = 4) (input [7:0] a, output reg [7:0] y);
  integer i, j;
  always @(*) begin
    y = 0;
    for (i = 0; i < N; i = i + 1)
      for (j = 0; j < i; j = j + 1)
        y = y ^ (a >> j);
  end
endmodule`})
	_, ref, err := ElaborateOpts(d, "m", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.String(); !strings.Contains(got, "for@m.v:7:7 alive=true\n") {
		t.Fatalf("inner loop not signed as a live constant loop:\n%s", got)
	}
	_, one, err := ElaborateOpts(d, "m", map[string]int64{"N": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := ref.CompatibleWith(one); ok {
		t.Error("N=1 leaves the inner loop no trip; it must be incompatible")
	}
	_, two, err := ElaborateOpts(d, "m", map[string]int64{"N": 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := ref.CompatibleWith(two); !ok {
		t.Errorf("N=2 keeps both loops alive: %s", reason)
	}
}

func TestRangeValidationInsideAlways(t *testing.T) {
	// Constant out-of-range accesses inside behavioral code are caught
	// at elaboration (this drives the scaling rule's width pinning).
	d := design(t, map[string]string{"m.v": `
module m #(parameter W = 8) (input clk, input [W-1:0] a, output reg [W-1:0] y);
  always @(posedge clk) begin
    if (a[7])
      y <= a;
  end
endmodule`})
	if _, _, err := ElaborateOpts(d, "m", map[string]int64{"W": 4}, Options{}); err == nil {
		t.Fatal("a[7] with W=4 must fail elaboration")
	}
	if _, _, err := ElaborateOpts(d, "m", nil, Options{}); err != nil {
		t.Fatalf("W=8 must elaborate: %v", err)
	}
}

func TestRangeValidationInPortBindings(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module leaf (input x, output y);
  assign y = ~x;
endmodule
module m #(parameter W = 8) (input [W-1:0] a, output y);
  leaf u (.x(a[6]), .y(y));
endmodule`})
	if _, _, err := ElaborateOpts(d, "m", map[string]int64{"W": 4}, Options{}); err == nil {
		t.Fatal("binding a[6] with W=4 must fail")
	}
}
