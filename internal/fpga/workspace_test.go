package fpga_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/fpga"
	"repro/internal/synth"
)

// TestMapWSMatchesMap pins the mapping through a reused workspace
// against a fresh-scratch mapping over the whole corpus, reusing one
// workspace dirty across components and K values the way a session
// pool worker does.
func TestMapWSMatchesMap(t *testing.T) {
	ws := &fpga.Workspace{}
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		res, err := synth.Synthesize(d, c.Top, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		for _, k := range []int{0, 4} {
			opts := fpga.Options{K: k}
			fresh := fpga.MapWS(res.Optimized, opts, nil)
			for run := 0; run < 2; run++ {
				if got := fpga.MapWS(res.Optimized, opts, ws); *got != *fresh {
					t.Errorf("%s K=%d run %d: reused-workspace mapping %+v != fresh %+v",
						c.Label(), k, run, *got, *fresh)
				}
			}
		}
	}
}
