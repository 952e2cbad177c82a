package timing

import (
	"sort"
	"strconv"

	"repro/internal/netlist"
	"repro/internal/stdcell"
)

// PathReport is one endpoint's timing.
type PathReport struct {
	Endpoint  string
	ArrivalNs float64
}

// Analysis is the full static-timing report Summarize is pinned
// against.
type Analysis struct {
	// CriticalNs is the longest register-to-register (or input-to-
	// output) combinational delay, including clk-to-q and setup.
	CriticalNs float64
	// FreqMHz is 1000/CriticalNs.
	FreqMHz float64
	// NearCritical counts endpoints within 10% of the critical path.
	NearCritical int
	// Endpoints holds every endpoint's arrival time, sorted slowest
	// first.
	Endpoints []PathReport
}

// Analyze is the reference static-timing analysis: fresh per-net
// tables, a named report per endpoint, and a slowest-first sort that
// the critical path and the near-critical count are read from.
// Summarize must agree with it exactly.
func Analyze(n *netlist.Netlist, lib *stdcell.Library) *Analysis {
	arrival := make([]float64, n.NumNets())

	// Leaves launch at clk-to-q (sequential outputs, RAM reads) or 0
	// (primary inputs, constants).
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

	order, err := n.TopoOrder()
	if err != nil {
		return &Analysis{}
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

	an := &Analysis{}
	add := func(endpoint string, id netlist.NetID, extra float64) {
		if id == netlist.Nil {
			return
		}
		an.Endpoints = append(an.Endpoints, PathReport{
			Endpoint:  endpoint,
			ArrivalNs: arrival[id] + extra,
		})
	}
	for _, p := range n.Outputs {
		add("out:"+p.Name, p.Net, 0)
	}
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Type.IsSequential() {
			add("seq:"+c.Type.String(), c.In[0], setup)
			if c.Type == netlist.Latch {
				add("seq:LATCH.en", c.In[1], setup)
			}
		}
	}
	for ri, r := range n.RAMs {
		for _, wp := range r.WritePorts {
			add("ram:"+strconv.Itoa(ri)+":wen", wp.En, setup)
			for _, b := range wp.Addr {
				add("ram:"+strconv.Itoa(ri)+":waddr", b, setup)
			}
			for _, b := range wp.Data {
				add("ram:"+strconv.Itoa(ri)+":wdata", b, setup)
			}
		}
		for _, rp := range r.ReadPorts {
			for _, b := range rp.Addr {
				add("ram:"+strconv.Itoa(ri)+":raddr", b, setup)
			}
		}
	}
	sort.Slice(an.Endpoints, func(i, j int) bool {
		return an.Endpoints[i].ArrivalNs > an.Endpoints[j].ArrivalNs
	})
	if len(an.Endpoints) > 0 {
		an.CriticalNs = an.Endpoints[0].ArrivalNs
		if an.CriticalNs > 0 {
			an.FreqMHz = 1000.0 / an.CriticalNs
		}
		threshold := an.CriticalNs * 0.9
		for _, e := range an.Endpoints {
			if e.ArrivalNs >= threshold {
				an.NearCritical++
			} else {
				break
			}
		}
	}
	return an
}
