package timing

import (
	"testing"

	"repro/internal/stdcell"
)

var sink Summary

func BenchmarkSummarizeAdder(b *testing.B) {
	b.ReportAllocs()
	nl := netlistOf(b, `
module add #(parameter W = 32) (input clk, input [W-1:0] a, x, output reg [W-1:0] s);
  always @(posedge clk) s <= a + x;
endmodule`, "add", nil)
	lib := stdcell.Default180nm()
	ws := &Workspace{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Summarize(nl, lib, ws)
	}
}
