package fpga

import (
	"testing"

	"repro/internal/hdl"
	"repro/internal/synth"
)

func BenchmarkMapMultiplier(b *testing.B) {
	b.ReportAllocs()
	d, err := hdl.ParseDesign(map[string]string{"b.v": `
module mul (input [15:0] a, x, output [15:0] p);
  assign p = a * x;
endmodule`})
	if err != nil {
		b.Fatal(err)
	}
	res, err := synth.Synthesize(d, "mul", nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MapWS(res.Optimized, Options{}, nil)
	}
}
