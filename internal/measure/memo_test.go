package measure

import "testing"

// TestMeasureComponentCarriesSynthesis pins what a result carries of
// its synthesis: the optimized netlist's hash and timing summary, and
// no netlist.
func TestMeasureComponentCarriesSynthesis(t *testing.T) {
	d := design(t, memoDesign)
	for _, useAccounting := range []bool{true, false} {
		res, err := MeasureComponent(d, "m", useAccounting, Options{})
		if err != nil {
			t.Fatalf("accounting=%v: %v", useAccounting, err)
		}
		if res.NetlistHash == "" {
			t.Errorf("accounting=%v: measurement carries no netlist hash", useAccounting)
		}
		if res.Synth != nil {
			t.Errorf("accounting=%v: measurement carries its synthesis", useAccounting)
		}
		// At full parameters the xor chain must synthesize to real
		// cells with a real critical path (the minimized point may
		// legally optimize to wires).
		if !useAccounting && res.Timing.CriticalNs == 0 {
			t.Errorf("accounting=false: timing summary %+v has no critical path", res.Timing)
		}
	}
}
