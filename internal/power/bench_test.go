package power

import (
	"testing"

	"repro/internal/hdl"
	"repro/internal/stdcell"
	"repro/internal/synth"
)

func BenchmarkAnalyzeDatapath(b *testing.B) {
	b.ReportAllocs()
	d, err := hdl.ParseDesign(map[string]string{"b.v": `
module dp (input clk, input [15:0] a, x, output reg [15:0] y);
  always @(posedge clk) y <= (a * x) + (a ^ x);
endmodule`})
	if err != nil {
		b.Fatal(err)
	}
	res, err := synth.Synthesize(d, "dp", nil)
	if err != nil {
		b.Fatal(err)
	}
	lib := stdcell.Default180nm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AnalyzeWS(res.Optimized, lib, 100, nil)
	}
}
