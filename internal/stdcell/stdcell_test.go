package stdcell

import (
	"testing"

	"repro/internal/netlist"
)

func TestLibraryCoversAllPrimitives(t *testing.T) {
	lib := Default180nm()
	types := []netlist.CellType{
		netlist.Inv, netlist.Buf, netlist.And2, netlist.Or2,
		netlist.Nand2, netlist.Nor2, netlist.Xor2, netlist.Xnor2,
		netlist.Mux2, netlist.DFF, netlist.Latch,
	}
	for _, ct := range types {
		p := lib.CellParams(ct)
		if p.Area <= 0 || p.Delay <= 0 || p.Leakage <= 0 || p.SwitchEng <= 0 {
			t.Errorf("%s has non-positive parameters: %+v", ct, p)
		}
	}
}

func TestLibraryRatiosSane(t *testing.T) {
	lib := Default180nm()
	inv := lib.CellParams(netlist.Inv)
	dff := lib.CellParams(netlist.DFF)
	xor := lib.CellParams(netlist.Xor2)
	nand := lib.CellParams(netlist.Nand2)
	if dff.Area <= xor.Area || xor.Area <= nand.Area || nand.Area <= inv.Area {
		t.Error("area ordering INV < NAND < XOR < DFF violated")
	}
	if dff.Delay <= inv.Delay {
		t.Error("DFF clk-to-q must exceed inverter delay")
	}
}

func buildToggler(t *testing.T) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder(nil)
	clk := b.NewNet(true)
	q := b.NewNet(true)
	d := b.Not(q)
	if err := b.Alias(q, b.NewDFF(d, clk)); err != nil {
		t.Fatal(err)
	}
	b.AddInput("clk", clk)
	b.AddOutput("q", q)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestAreasSplitLogicAndStorage(t *testing.T) {
	lib := Default180nm()
	nl := buildToggler(t)
	areaL, areaS := lib.Areas(nl)
	if areaL != lib.CellParams(netlist.Inv).Area {
		t.Errorf("areaL = %v", areaL)
	}
	if areaS != lib.CellParams(netlist.DFF).Area {
		t.Errorf("areaS = %v", areaS)
	}
}

func TestRAMModelScaling(t *testing.T) {
	lib := Default180nm()
	small := &netlist.RAM{Width: 8, Depth: 16, ReadPorts: make([]netlist.RAMReadPort, 1)}
	big := &netlist.RAM{Width: 8, Depth: 64, ReadPorts: make([]netlist.RAMReadPort, 1)}
	multi := &netlist.RAM{Width: 8, Depth: 16, ReadPorts: make([]netlist.RAMReadPort, 3)}
	if lib.RAMArea(big) <= lib.RAMArea(small) {
		t.Error("deeper RAM must be larger")
	}
	if lib.RAMArea(multi) <= lib.RAMArea(small) {
		t.Error("more ports must cost area")
	}
	if lib.RAMLeakage(big) != 4*lib.RAMLeakage(small) {
		t.Error("leakage must scale with bits")
	}
	if lib.RAMDynamicEnergy(big, 0.5) <= lib.RAMDynamicEnergy(small, 0.5) {
		t.Error("deeper RAM must cost more access energy")
	}
	if lib.RAMDynamicEnergy(small, 1.0) <= lib.RAMDynamicEnergy(small, 0.1) {
		t.Error("energy must scale with activity")
	}
}

func TestStaticPowerIncludesRAM(t *testing.T) {
	lib := Default180nm()
	nl := buildToggler(t)
	base := lib.StaticPower(nl)
	nl.RAMs = append(nl.RAMs, &netlist.RAM{Width: 32, Depth: 1024})
	withRAM := lib.StaticPower(nl)
	if withRAM <= base {
		t.Error("RAM must add leakage")
	}
	// 32×1024 bits × 0.05 nW = 1638.4 nW ≈ 1.64 µW extra.
	if diff := withRAM - base; diff < 1.5 || diff > 1.8 {
		t.Errorf("RAM leakage delta = %v µW", diff)
	}
}

func TestCellParamsPanicsOnUnknown(t *testing.T) {
	lib := &Library{Name: "empty"}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	lib.CellParams(netlist.Inv)
}
