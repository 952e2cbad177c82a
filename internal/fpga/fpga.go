// Package fpga maps a synthesized netlist onto k-input LUTs and
// derives the two FPGA-side metrics of Table 3: Freq (the maximum
// clock frequency on a Stratix-II-class device) and the LUT-based
// approximation of FanInLC.
//
// The paper measured these with Synplify Pro targeting an Altera
// Stratix-II EP2S90 and estimated FanInLC "by summing all the inputs
// used in all the LUTs", noting that a logic cone wider than the eight
// inputs available on a single LUT is cascaded (rarely, in their
// designs). This package reproduces that flow with a greedy
// level-oriented LUT covering: each combinational cell either absorbs
// its fan-in cones into one LUT (when the merged support fits k
// inputs) or starts a new LUT level.
package fpga

import (
	"repro/internal/netlist"
	"repro/internal/scratch"
)

// Options configures the mapping.
type Options struct {
	// K is the LUT input count. Zero means 8, matching the paper's
	// description of the Stratix-II ALM.
	K int
}

// Stratix-II-class timing model, in ns.
const (
	clkToQ     = 0.2
	lutDelay   = 0.45
	routeDelay = 0.6
	setup      = 0.1
	ramAccess  = 1.8
)

// Mapping is the result of LUT covering.
type Mapping struct {
	// LUTs counts the mapped lookup tables.
	LUTs int
	// LUTInputSum is Σ inputs over all LUTs — the paper's FanInLC
	// approximation.
	LUTInputSum int
	// Levels is the deepest LUT level on any register-to-register or
	// input-to-output path.
	Levels int
	// FreqMHz is the achievable clock frequency under the timing
	// model.
	FreqMHz float64
	// FFs counts flip-flops (the paper reports FFs from the FPGA
	// flow).
	FFs int
}

// MapWS covers the netlist's combinational logic with k-LUTs and
// evaluates the timing model. All scratch — the per-net tables, merge
// buffers, and the arena every cut set is carved from — comes from ws,
// which may be nil (fresh scratch) or a reused workspace; the mapping
// is bit-identical either way.
func MapWS(n *netlist.Netlist, opts Options, ws *Workspace) *Mapping {
	if ws == nil {
		ws = &Workspace{}
	}
	lutInputs := opts.K
	if lutInputs == 0 {
		lutInputs = 8
	}
	drivers := n.Drivers()

	isLeaf := func(id netlist.NetID) bool {
		if id == n.Const0 || id == n.Const1 {
			return false
		}
		d := drivers[id]
		return d < 0 || n.Cells[d].Type.IsSequential()
	}

	info := scratch.Zero(&ws.info, n.NumNets())
	level := scratch.Zero(&ws.level, n.NumNets()) // level of the net once realized

	m := &Mapping{}
	var realize func(id netlist.NetID)

	// cutOf returns the support set of a net's logic (the net itself
	// for leaves and constants-free). Leaf singletons are interned in
	// the info table so repeated fan-out does not reallocate them.
	cutOf := func(id netlist.NetID) []netlist.NetID {
		if id == n.Const0 || id == n.Const1 {
			return nil
		}
		if isLeaf(id) {
			if info[id].cut == nil {
				s := ws.arena.Take(1)
				s[0] = id
				info[id].cut = s
			}
			return info[id].cut
		}
		return info[id].cut
	}

	realize = func(id netlist.NetID) {
		if id == netlist.Nil || id == n.Const0 || id == n.Const1 || isLeaf(id) {
			return
		}
		if info[id].realized {
			return
		}
		info[id].realized = true
		cut := info[id].cut
		maxIn := 0
		for _, in := range cut {
			if !isLeaf(in) {
				realize(in)
			}
			if level[in] > maxIn {
				maxIn = level[in]
			}
		}
		if len(cut) == 0 {
			// Pure-constant logic: no LUT needed.
			level[id] = 0
			return
		}
		level[id] = maxIn + 1
		m.LUTs++
		m.LUTInputSum += len(cut)
		if level[id] > m.Levels {
			m.Levels = level[id]
		}
	}

	order, err := n.TopoOrder()
	if err != nil {
		// A cyclic netlist cannot be mapped; return an empty mapping
		// (Validate in synth prevents this in practice).
		return m
	}
	// Input cuts are kept sorted and duplicate-free, so the merged
	// support of a cell is a k-way sorted merge. Two reusable scratch
	// buffers avoid the per-cell map and sort this loop used to pay —
	// it runs once per cell and dominates the mapping's cost.
	cur := ws.cur[:0]
	next := ws.next[:0]
	for _, ci := range order {
		c := &n.Cells[ci]
		cur = cur[:0]
		for _, in := range c.Inputs() {
			cut := cutOf(in)
			if len(cut) == 0 {
				continue
			}
			if len(cur) == 0 {
				cur = append(cur, cut...)
				continue
			}
			next = next[:0]
			i, j := 0, 0
			for i < len(cur) && j < len(cut) {
				switch {
				case cur[i] < cut[j]:
					next = append(next, cur[i])
					i++
				case cut[j] < cur[i]:
					next = append(next, cut[j])
					j++
				default:
					next = append(next, cur[i])
					i++
					j++
				}
			}
			next = append(next, cur[i:]...)
			next = append(next, cut[j:]...)
			cur, next = next, cur
		}
		if len(cur) <= lutInputs {
			cut := ws.arena.Take(len(cur))
			copy(cut, cur)
			info[c.Out].cut = cut
			continue
		}
		// Too wide: realize the inputs as LUT roots and cascade. Cells
		// have at most three inputs, so a fixed array and insertion sort
		// replace the sort.Slice this path used to allocate for.
		var insArr [3]netlist.NetID
		ins := insArr[:0]
		for _, in := range c.Inputs() {
			if in == n.Const0 || in == n.Const1 {
				continue
			}
			realize(in)
			ins = append(ins, in)
		}
		for i := 1; i < len(ins); i++ {
			for j := i; j > 0 && ins[j] < ins[j-1]; j-- {
				ins[j], ins[j-1] = ins[j-1], ins[j]
			}
		}
		cut := ws.arena.Take(len(ins))
		k := 0
		for i, id := range ins {
			if i == 0 || id != ins[i-1] {
				cut[k] = id
				k++
			}
		}
		info[c.Out].cut = cut[:k]
	}
	ws.cur, ws.next = cur[:0], next[:0]

	// Realize every endpoint.
	for _, p := range n.Outputs {
		realize(p.Net)
	}
	hasRAM := len(n.RAMs) > 0
	for ci := range n.Cells {
		c := &n.Cells[ci]
		switch c.Type {
		case netlist.DFF:
			m.FFs++
			realize(c.In[0])
		case netlist.Latch:
			realize(c.In[0])
			realize(c.In[1])
		}
	}
	for _, r := range n.RAMs {
		for _, wp := range r.WritePorts {
			realize(wp.En)
			for _, b := range wp.Addr {
				realize(b)
			}
			for _, b := range wp.Data {
				realize(b)
			}
		}
		for _, rp := range r.ReadPorts {
			for _, b := range rp.Addr {
				realize(b)
			}
		}
	}

	// Timing: clk-to-q, L LUT+route stages, setup; RAM read access
	// adds its latency when memories are present.
	period := clkToQ + float64(m.Levels)*(lutDelay+routeDelay) + setup
	if hasRAM {
		period += ramAccess
	}
	m.FreqMHz = 1000.0 / period
	return m
}
