// Package timing performs static timing analysis over a synthesized
// netlist with standard-cell delays — the back-end awareness the paper
// calls out as future work: "varying the value of certain parameters
// may have implications on the difficulty of timing closure … This
// issue suggests the need for future design effort estimators that are
// aware of back-end physical design and timing concerns" (§2.5).
//
// The analysis computes, for every endpoint (primary output, FF/latch
// data input, RAM input pin), the longest combinational arrival time
// under the cell library's delays, and summarizes the design's timing
// profile: the critical path and the count of near-critical endpoints
// (paths within 10% of the worst) — a proxy for how many logic cones a
// timing-closure effort would have to restructure.
package timing

import (
	"repro/internal/netlist"
	"repro/internal/scratch"
	"repro/internal/stdcell"
)

// Summary is the design's static-timing profile.
type Summary struct {
	// CriticalNs is the longest register-to-register (or input-to-
	// output) combinational delay, including clk-to-q and setup.
	CriticalNs float64
	// NearCritical counts endpoints within 10% of the critical path —
	// the cones timing closure would fight with.
	NearCritical int
}

// Constants of the flop timing model (ns), matching the FPGA model's
// structure but with ASIC-scale values.
const (
	clkToQ = 0.20
	setup  = 0.10
)

// Workspace holds the per-net arrival plane and the endpoint arrivals,
// reusable across analyses. It holds no references into a netlist, so
// it needs no reset. Owned by one goroutine at a time; nil selects
// fresh scratch.
type Workspace struct {
	arrival []float64
	ends    []float64
}

// Summarize runs static timing over the netlist with the given library
// and returns its summary: one max-arrival pass over the endpoints,
// then a count of those at or above 0.9× the critical delay. A design
// with a combinational cycle, or with no endpoint, summarizes to zero.
// ws may be nil (fresh scratch) or a reused workspace; the summary is
// identical either way.
func Summarize(n *netlist.Netlist, lib *stdcell.Library, ws *Workspace) Summary {
	if ws == nil {
		ws = &Workspace{}
	}
	order, err := n.TopoOrder()
	if err != nil {
		return Summary{}
	}
	// Leaves launch at clk-to-q (sequential outputs, RAM reads) or 0
	// (primary inputs, constants).
	arrival := scratch.Zero(&ws.arrival, n.NumNets())
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Type.IsSequential() {
			arrival[c.Out] = clkToQ
		}
	}
	for _, r := range n.RAMs {
		for _, rp := range r.ReadPorts {
			for _, o := range rp.Out {
				arrival[o] = clkToQ + lib.RAMAccessDelay
			}
		}
	}
	for _, ci := range order {
		c := &n.Cells[ci]
		worst := 0.0
		for _, in := range c.Inputs() {
			if arrival[in] > worst {
				worst = arrival[in]
			}
		}
		arrival[c.Out] = worst + lib.CellParams(c.Type).Delay
	}

	ends := ws.ends[:0]
	add := func(id netlist.NetID, extra float64) {
		if id != netlist.Nil {
			ends = append(ends, arrival[id]+extra)
		}
	}
	for _, p := range n.Outputs {
		add(p.Net, 0)
	}
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Type.IsSequential() {
			add(c.In[0], setup)
			if c.Type == netlist.Latch {
				add(c.In[1], setup)
			}
		}
	}
	for _, r := range n.RAMs {
		for _, wp := range r.WritePorts {
			add(wp.En, setup)
			for _, b := range wp.Addr {
				add(b, setup)
			}
			for _, b := range wp.Data {
				add(b, setup)
			}
		}
		for _, rp := range r.ReadPorts {
			for _, b := range rp.Addr {
				add(b, setup)
			}
		}
	}
	ws.ends = ends

	var s Summary
	if len(ends) == 0 {
		return s
	}
	s.CriticalNs = ends[0]
	for _, a := range ends[1:] {
		if a > s.CriticalNs {
			s.CriticalNs = a
		}
	}
	threshold := s.CriticalNs * 0.9
	for _, a := range ends {
		if a >= threshold {
			s.NearCritical++
		}
	}
	return s
}
