// Package stdcell models a 180 nm-class standard-cell library: per-cell
// area, delay, leakage, and switching energy, plus the RAM-macro model
// used for inferred memories.
//
// The paper's ASIC-side metrics (Table 3) come from synthesizing to "a
// 180nm standard cell library" with Design Compiler. The numbers below
// are representative of such a library (areas in µm², delays in ns,
// leakage in nW, switching energy in pJ); they produce metric
// magnitudes in the same ranges as Table 4. Absolute values do not
// matter for the reproduction — the estimator analysis is
// scale-invariant because the regression fits a weight per metric —
// but realistic ratios between cell types keep the area/power metrics
// honestly correlated with structure, which is what Figures 5 and 6
// exercise.
package stdcell

import (
	"fmt"
	"math"

	"repro/internal/netlist"
)

// Params describes one cell type.
type Params struct {
	Area      float64 // µm²
	Delay     float64 // ns, input to output
	Leakage   float64 // nW static leakage
	SwitchEng float64 // pJ per output transition
}

// Library is a full cell library: parameters per primitive cell type
// and the RAM model.
type Library struct {
	Name string
	// Cells is indexed by cell type; an all-zero entry is a cell the
	// library lacks.
	Cells [netlist.NumCellTypes]Params
	// RAMBitArea is the storage area per memory bit (µm²); RAM
	// periphery adds RAMPortArea per bit of each port.
	RAMBitArea  float64
	RAMPortArea float64
	// RAMBitLeakage is leakage per bit (nW).
	RAMBitLeakage float64
	// RAMAccessEnergy is pJ per accessed bit per activation.
	RAMAccessEnergy float64
	// RAMAccessDelay is the read-access time in ns.
	RAMAccessDelay float64
}

// Default180nm returns the library used throughout the reproduction.
// Ratios follow typical 180 nm vendor data: an inverter is the unit
// cell; NAND/NOR are ~1.3×, AND/OR ~1.7× (extra output inverter),
// XOR/XNOR ~2.5×, MUX ~2.3×, DFF ~6×, latch ~3.5×.
//
// The returned library is a shared read-only instance (callers never
// mutate libraries; anyone needing a variant builds their own): the
// default is resolved once per synthesis call on the measurement hot
// path, so constructing the cell table fresh each time was a measurable
// allocation cost.
func Default180nm() *Library {
	return default180
}

var default180 = newDefault180nm()

func newDefault180nm() *Library {
	return &Library{
		Name: "generic180",
		Cells: [netlist.NumCellTypes]Params{
			netlist.Inv:   {Area: 10.0, Delay: 0.04, Leakage: 0.5, SwitchEng: 0.004},
			netlist.Buf:   {Area: 13.3, Delay: 0.07, Leakage: 0.6, SwitchEng: 0.005},
			netlist.Nand2: {Area: 13.3, Delay: 0.06, Leakage: 0.8, SwitchEng: 0.006},
			netlist.Nor2:  {Area: 13.3, Delay: 0.07, Leakage: 0.8, SwitchEng: 0.006},
			netlist.And2:  {Area: 16.6, Delay: 0.09, Leakage: 1.0, SwitchEng: 0.007},
			netlist.Or2:   {Area: 16.6, Delay: 0.10, Leakage: 1.0, SwitchEng: 0.007},
			netlist.Xor2:  {Area: 25.0, Delay: 0.12, Leakage: 1.5, SwitchEng: 0.010},
			netlist.Xnor2: {Area: 25.0, Delay: 0.12, Leakage: 1.5, SwitchEng: 0.010},
			netlist.Mux2:  {Area: 23.3, Delay: 0.11, Leakage: 1.4, SwitchEng: 0.009},
			netlist.DFF:   {Area: 60.0, Delay: 0.20, Leakage: 3.0, SwitchEng: 0.020},
			netlist.Latch: {Area: 35.0, Delay: 0.15, Leakage: 2.0, SwitchEng: 0.012},
		},
		RAMBitArea:      2.5,
		RAMPortArea:     0.9,
		RAMBitLeakage:   0.05,
		RAMAccessEnergy: 0.0008,
		RAMAccessDelay:  1.8,
	}
}

// CellParams returns the parameters of a cell type, panicking on an
// unknown type (a programming error: the library must cover every
// primitive the synthesizer emits).
func (l *Library) CellParams(t netlist.CellType) Params {
	if t >= netlist.NumCellTypes || l.Cells[t] == (Params{}) {
		panic(fmt.Sprintf("stdcell: library %s has no cell %s", l.Name, t))
	}
	return l.Cells[t]
}

// RAMArea returns the macro area of a RAM in µm².
func (l *Library) RAMArea(r *netlist.RAM) float64 {
	bits := float64(r.Width * r.Depth)
	ports := len(r.WritePorts) + len(r.ReadPorts)
	if ports == 0 {
		ports = 1
	}
	return bits*l.RAMBitArea + bits*float64(ports)*l.RAMPortArea
}

// RAMLeakage returns the macro leakage of a RAM in nW.
func (l *Library) RAMLeakage(r *netlist.RAM) float64 {
	return float64(r.Width*r.Depth) * l.RAMBitLeakage
}

// RAMDynamicEnergy returns pJ per clock for a RAM, assuming each port
// is active with the given probability.
func (l *Library) RAMDynamicEnergy(r *netlist.RAM, activity float64) float64 {
	ports := len(r.WritePorts) + len(r.ReadPorts)
	if ports == 0 {
		ports = 1
	}
	rowBits := float64(r.Width)
	return rowBits * float64(ports) * activity * l.RAMAccessEnergy * math.Sqrt(float64(r.Depth))
}

// Areas aggregates the logic and storage areas of a netlist:
// AreaL = combinational cells; AreaS = flip-flops, latches, and RAM
// macros. This split matches the paper's AreaL ("logic area") vs AreaS
// ("storage area") columns.
func (l *Library) Areas(n *netlist.Netlist) (areaL, areaS float64) {
	for i := range n.Cells {
		p := l.CellParams(n.Cells[i].Type)
		if n.Cells[i].Type.IsSequential() {
			areaS += p.Area
		} else {
			areaL += p.Area
		}
	}
	for _, r := range n.RAMs {
		areaS += l.RAMArea(r)
	}
	return areaL, areaS
}

// StaticPower returns total leakage in µW (the paper's PowerS unit).
func (l *Library) StaticPower(n *netlist.Netlist) float64 {
	var nw float64
	for i := range n.Cells {
		nw += l.CellParams(n.Cells[i].Type).Leakage
	}
	for _, r := range n.RAMs {
		nw += l.RAMLeakage(r)
	}
	return nw / 1000.0
}
