package fpga

import (
	"testing"

	"repro/internal/cones"
	"repro/internal/hdl"
	"repro/internal/netlist"
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

func TestMapSmallConeFitsOneLUT(t *testing.T) {
	// y = (a&b)|(c&d): 4 leaves fit a single 8-LUT.
	nl := netlistOf(t, `
module m (input a, b, c, d, output y);
  assign y = (a & b) | (c & d);
endmodule`, "m", nil)
	mp := MapWS(nl, Options{}, nil)
	if mp.LUTs != 1 {
		t.Fatalf("LUTs = %d, want 1", mp.LUTs)
	}
	if mp.LUTInputSum != 4 {
		t.Errorf("LUT input sum = %d, want 4", mp.LUTInputSum)
	}
	if mp.Levels != 1 {
		t.Errorf("levels = %d, want 1", mp.Levels)
	}
}

func TestMapWideConeCascades(t *testing.T) {
	// A 16-input reduction cannot fit one 8-LUT.
	nl := netlistOf(t, `
module m (input [15:0] a, output y);
  assign y = &a;
endmodule`, "m", nil)
	mp := MapWS(nl, Options{}, nil)
	if mp.LUTs < 2 {
		t.Fatalf("LUTs = %d, want >= 2 (cascade)", mp.LUTs)
	}
	if mp.Levels < 2 {
		t.Errorf("levels = %d, want >= 2", mp.Levels)
	}
	if mp.LUTInputSum < 16 {
		t.Errorf("LUT input sum = %d, want >= 16", mp.LUTInputSum)
	}
}

func TestMapSmallerKGivesMoreLUTs(t *testing.T) {
	nl := netlistOf(t, `
module m (input [15:0] a, b, output [15:0] s);
  assign s = a + b;
endmodule`, "m", nil)
	k8 := MapWS(nl, Options{K: 8}, nil)
	k4 := MapWS(nl, Options{K: 4}, nil)
	if k4.LUTs <= k8.LUTs {
		t.Errorf("K=4 LUTs (%d) must exceed K=8 LUTs (%d)", k4.LUTs, k8.LUTs)
	}
	if k4.Levels < k8.Levels {
		t.Errorf("K=4 levels (%d) must be >= K=8 levels (%d)", k4.Levels, k8.Levels)
	}
}

func TestMapFreqDecreasesWithDepth(t *testing.T) {
	src := `
module add #(parameter W = 8) (input [W-1:0] a, b, output [W-1:0] s);
  assign s = a + b;
endmodule`
	f8 := MapWS(netlistOf(t, src, "add", map[string]int64{"W": 8}), Options{}, nil).FreqMHz
	f32 := MapWS(netlistOf(t, src, "add", map[string]int64{"W": 32}), Options{}, nil).FreqMHz
	if f32 >= f8 {
		t.Errorf("wider adder must be slower: f8=%v f32=%v", f8, f32)
	}
	if f8 <= 0 || f8 > 2000 {
		t.Errorf("f8 = %v MHz not plausible", f8)
	}
}

func TestMapCountsFFs(t *testing.T) {
	nl := netlistOf(t, `
module m (input clk, input [4:0] d, output reg [4:0] q);
  always @(posedge clk) q <= d;
endmodule`, "m", nil)
	mp := MapWS(nl, Options{}, nil)
	if mp.FFs != 5 {
		t.Errorf("FFs = %d, want 5", mp.FFs)
	}
	// A pure register has no LUTs (D comes straight from inputs).
	if mp.LUTs != 0 {
		t.Errorf("LUTs = %d, want 0", mp.LUTs)
	}
	if mp.Levels != 0 {
		t.Errorf("levels = %d, want 0", mp.Levels)
	}
}

func TestMapRAMAddsAccessTime(t *testing.T) {
	ramSrc := `
module m (input clk, we, input [1:0] wa, ra, input [3:0] wd, output [3:0] rd);
  reg [3:0] mem [0:3];
  always @(posedge clk) if (we) mem[wa] <= wd;
  assign rd = mem[ra];
endmodule`
	plainSrc := `
module m (input [3:0] a, output [3:0] y);
  assign y = ~a;
endmodule`
	fRAM := MapWS(netlistOf(t, ramSrc, "m", nil), Options{}, nil).FreqMHz
	fPlain := MapWS(netlistOf(t, plainSrc, "m", nil), Options{}, nil).FreqMHz
	if fRAM >= fPlain {
		t.Errorf("RAM access must slow the clock: %v vs %v", fRAM, fPlain)
	}
}

func TestLUTInputSumApproximatesExactFanInLC(t *testing.T) {
	// The paper's observation: the LUT-input approximation is close to
	// the true cone fan-in when cascading is rare. For a modest design
	// the two must be within 2× of each other.
	nl := netlistOf(t, `
module m (input clk, input [7:0] a, b, input [1:0] op, output reg [7:0] y);
  always @(posedge clk) begin
    case (op)
      2'd0: y <= a + b;
      2'd1: y <= a & b;
      2'd2: y <= a | b;
      default: y <= a ^ b;
    endcase
  end
endmodule`, "m", nil)
	exact := cones.AnalyzeSummary(nl, nil).FanInLC
	approx := MapWS(nl, Options{}, nil).LUTInputSum
	if exact == 0 || approx == 0 {
		t.Fatalf("degenerate metrics: exact=%d approx=%d", exact, approx)
	}
	ratio := float64(approx) / float64(exact)
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("LUT approximation ratio %.2f out of range (exact=%d approx=%d)", ratio, exact, approx)
	}
}
