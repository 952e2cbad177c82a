package sim

import (
	"testing"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/synth"
)

const benchCore = `
module bench (input clk, input rst, input [15:0] din, output reg [15:0] acc);
  reg [15:0] stage1, stage2;
  always @(posedge clk) begin
    if (rst) begin
      stage1 <= 0;
      stage2 <= 0;
      acc <= 0;
    end else begin
      stage1 <= din + 1;
      stage2 <= stage1 * 3;
      acc <= acc + stage2;
    end
  end
endmodule`

func benchDesign(b *testing.B) *hdl.Design {
	b.Helper()
	d, err := hdl.ParseDesign(map[string]string{"b.v": benchCore})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkRTLSimStep(b *testing.B) {
	b.ReportAllocs()
	d := benchDesign(b)
	inst, _, err := elab.ElaborateOpts(d, "bench", nil, elab.Options{})
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewRTLSim(inst)
	if err != nil {
		b.Fatal(err)
	}
	r.SetInput("din", 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGateSimStep(b *testing.B) {
	b.ReportAllocs()
	d := benchDesign(b)
	res, err := synth.Synthesize(d, "bench", nil)
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGateSim(res.Optimized)
	if err != nil {
		b.Fatal(err)
	}
	g.SetInput("din", 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
