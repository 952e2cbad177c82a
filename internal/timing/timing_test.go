package timing

import (
	"testing"

	"repro/internal/hdl"
	"repro/internal/netlist"
	"repro/internal/stdcell"
	"repro/internal/synth"
)

func netlistOf(t testing.TB, src, top string, overrides map[string]int64) *netlist.Netlist {
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

func TestCriticalPathGrowsWithAdderWidth(t *testing.T) {
	lib := stdcell.Default180nm()
	src := `
module add #(parameter W = 8) (input clk, input [W-1:0] a, b, output reg [W-1:0] s);
  always @(posedge clk) s <= a + b;
endmodule`
	a4 := Analyze(netlistOf(t, src, "add", map[string]int64{"W": 4}), lib)
	a32 := Analyze(netlistOf(t, src, "add", map[string]int64{"W": 32}), lib)
	if a32.CriticalNs <= a4.CriticalNs {
		t.Errorf("wider ripple adder must be slower: %.2f vs %.2f ns", a4.CriticalNs, a32.CriticalNs)
	}
	if a32.FreqMHz >= a4.FreqMHz {
		t.Errorf("frequency must fall with width: %.1f vs %.1f MHz", a4.FreqMHz, a32.FreqMHz)
	}
	if a4.FreqMHz <= 0 || a4.FreqMHz > 5000 {
		t.Errorf("implausible frequency %.1f MHz", a4.FreqMHz)
	}
}

func TestPipeliningShortensCriticalPath(t *testing.T) {
	lib := stdcell.Default180nm()
	flat := `
module flat (input clk, input [15:0] a, b, c, output reg [15:0] y);
  always @(posedge clk) y <= (a + b) + (a + c) + (b + c);
endmodule`
	piped := `
module piped (input clk, input [15:0] a, b, c, output reg [15:0] y);
  reg [15:0] t1, t2, t3;
  always @(posedge clk) begin
    t1 <= a + b;
    t2 <= a + c;
    t3 <= b + c;
    y <= t1 + t2 + t3;
  end
endmodule`
	af := Analyze(netlistOf(t, flat, "flat", nil), lib)
	ap := Analyze(netlistOf(t, piped, "piped", nil), lib)
	if ap.CriticalNs >= af.CriticalNs {
		t.Errorf("pipelining must shorten the critical path: %.2f vs %.2f ns", ap.CriticalNs, af.CriticalNs)
	}
}

func TestRAMAccessOnCriticalPath(t *testing.T) {
	lib := stdcell.Default180nm()
	src := `
module m (input clk, we, input [2:0] wa, ra, input [7:0] wd, output reg [7:0] q);
  reg [7:0] mem [0:7];
  always @(posedge clk) begin
    if (we) mem[wa] <= wd;
    q <= mem[ra] + 1;
  end
endmodule`
	an := Analyze(netlistOf(t, src, "m", nil), lib)
	// The read-modify-write path includes the RAM access time.
	if an.CriticalNs < lib.RAMAccessDelay {
		t.Errorf("critical path %.2f ns must include RAM access %.2f ns", an.CriticalNs, lib.RAMAccessDelay)
	}
}

func TestEndpointsSortedAndNearCritical(t *testing.T) {
	lib := stdcell.Default180nm()
	src := `
module m (input clk, input [7:0] a, b, output reg [7:0] deep, output reg shallow);
  always @(posedge clk) begin
    deep <= a * b;
    shallow <= a[0];
  end
endmodule`
	an := Analyze(netlistOf(t, src, "m", nil), lib)
	if len(an.Endpoints) == 0 {
		t.Fatal("no endpoints")
	}
	for i := 1; i < len(an.Endpoints); i++ {
		if an.Endpoints[i].ArrivalNs > an.Endpoints[i-1].ArrivalNs {
			t.Fatal("endpoints not sorted slowest-first")
		}
	}
	if an.NearCritical < 1 {
		t.Errorf("NearCritical = %d, want >= 1", an.NearCritical)
	}
	// The multiplier endpoints dominate; the shallow bit must be far
	// from critical.
	if an.NearCritical >= len(an.Endpoints) {
		t.Errorf("every endpoint near-critical (%d of %d) — shallow path missing", an.NearCritical, len(an.Endpoints))
	}
}

func TestEmptyDesign(t *testing.T) {
	lib := stdcell.Default180nm()
	src := `module m (input a, output y); assign y = a; endmodule`
	nl := netlistOf(t, src, "m", nil)
	an := Analyze(nl, lib)
	// Pure wire: one endpoint with zero arrival, which is its own
	// critical path.
	if len(an.Endpoints) != 1 || an.Endpoints[0].ArrivalNs != 0 {
		t.Errorf("endpoints = %+v", an.Endpoints)
	}
	if got := Summarize(nl, lib, nil); got != (Summary{NearCritical: 1}) {
		t.Errorf("Summarize = %+v, want {0 1}", got)
	}
}
