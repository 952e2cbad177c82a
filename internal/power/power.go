// Package power estimates dynamic power (the paper's PowerD metric)
// from a synthesized netlist using static switching-activity
// propagation, the standard probabilistic technique synthesis tools
// use when no simulation trace is supplied.
//
// Each net carries two quantities: the static probability P(net = 1)
// and the transition density D (expected toggles per clock cycle).
// Primary inputs are assumed random (P = 0.5, D = 0.5); flip-flop
// outputs toggle at the density of their D input, damped by the clock
// capture; probabilities propagate through gates with the usual
// independence approximation (e.g. AND: P = Pa·Pb). Dynamic power is
// then Σ cells D(out)·E_switch·f plus the RAM access energy.
package power

import (
	"repro/internal/netlist"
	"repro/internal/scratch"
	"repro/internal/stdcell"
)

// Estimate holds the power analysis result.
type Estimate struct {
	// DynamicMW is total dynamic power in mW (the paper's PowerD
	// column unit).
	DynamicMW float64
	// StaticUW is total leakage in µW (the paper's PowerS unit),
	// delegated to the library model.
	StaticUW float64
	// FreqMHz is the clock frequency the dynamic estimate assumed.
	FreqMHz float64
}

// Workspace holds the two per-net activity planes, reusable across
// analyses. Owned by one goroutine at a time; nil selects fresh
// scratch.
type Workspace struct {
	prob []float64
	dens []float64
}

// AnalyzeWS propagates switching activity and returns the power
// estimate at the given clock frequency. ws may be nil (fresh scratch)
// or a reused workspace; results are bit-identical for any ws.
func AnalyzeWS(n *netlist.Netlist, lib *stdcell.Library, freqMHz float64, ws *Workspace) Estimate {
	if ws == nil {
		ws = &Workspace{}
	}
	prob := scratch.Raw(&ws.prob, n.NumNets())
	dens := scratch.Raw(&ws.dens, n.NumNets())

	// Initial conditions: primary inputs and sequential outputs.
	for i := range prob {
		prob[i] = 0.5
		dens[i] = 0.5
	}
	prob[n.Const0], dens[n.Const0] = 0, 0
	prob[n.Const1], dens[n.Const1] = 1, 0

	order, err := n.TopoOrder()
	if err != nil {
		return Estimate{FreqMHz: freqMHz, StaticUW: lib.StaticPower(n)}
	}

	// Two passes let flip-flop output densities reflect their inputs.
	for pass := 0; pass < 2; pass++ {
		for _, ci := range order {
			c := &n.Cells[ci]
			pa := prob[c.In[0]]
			da := dens[c.In[0]]
			var pb, db float64
			if c.Type.NumInputs() >= 2 {
				pb = prob[c.In[1]]
				db = dens[c.In[1]]
			}
			var p, d float64
			switch c.Type {
			case netlist.Inv:
				p, d = 1-pa, da
			case netlist.Buf:
				p, d = pa, da
			case netlist.And2:
				p = pa * pb
				d = da*pb + db*pa
			case netlist.Nand2:
				p = 1 - pa*pb
				d = da*pb + db*pa
			case netlist.Or2:
				p = pa + pb - pa*pb
				d = da*(1-pb) + db*(1-pa)
			case netlist.Nor2:
				p = 1 - (pa + pb - pa*pb)
				d = da*(1-pb) + db*(1-pa)
			case netlist.Xor2, netlist.Xnor2:
				p = pa + pb - 2*pa*pb
				if c.Type == netlist.Xnor2 {
					p = 1 - p
				}
				d = da + db
			case netlist.Mux2:
				ps := prob[c.In[2]]
				ds := dens[c.In[2]]
				p = pa*(1-ps) + pb*ps
				d = da*(1-ps) + db*ps + ds*absf(pa-pb)
			default:
				continue // sequential handled below
			}
			prob[c.Out] = clamp01(p)
			dens[c.Out] = clampD(d)
		}
		// Sequential elements: a flip-flop output follows its data
		// input's probability; its density is capped at one toggle per
		// cycle.
		for ci := range n.Cells {
			c := &n.Cells[ci]
			switch c.Type {
			case netlist.DFF:
				prob[c.Out] = prob[c.In[0]]
				d := dens[c.In[0]]
				if d > 1 {
					d = 1
				}
				dens[c.Out] = d
			case netlist.Latch:
				pe := prob[c.In[1]]
				prob[c.Out] = prob[c.In[0]]
				dens[c.Out] = clampD(dens[c.In[0]] * pe)
			}
		}
		// RAM read outputs: treat as random data.
		for _, r := range n.RAMs {
			for _, rp := range r.ReadPorts {
				for _, o := range rp.Out {
					prob[o] = 0.5
					dens[o] = 0.5
				}
			}
		}
	}

	// Energy: Σ density × per-cell switching energy × frequency.
	// E in pJ, f in MHz ⇒ pJ × 1e6/s = µW; divide by 1000 for mW.
	var pj float64
	for ci := range n.Cells {
		c := &n.Cells[ci]
		pj += dens[c.Out] * lib.CellParams(c.Type).SwitchEng
	}
	for _, r := range n.RAMs {
		act := 0.5
		for _, wp := range r.WritePorts {
			act += 0.5 * prob[wp.En] / float64(len(r.WritePorts)+1)
		}
		pj += lib.RAMDynamicEnergy(r, act)
	}
	return Estimate{
		DynamicMW: pj * freqMHz / 1000.0,
		StaticUW:  lib.StaticPower(n),
		FreqMHz:   freqMHz,
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func clampD(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 2 {
		return 2
	}
	return v
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
