package cones

import (
	"repro/internal/netlist"
	"repro/internal/scratch"
)

// Workspace holds the analyzer's per-net tables, traversal scratch, and
// the memo arena, reusable across analyses. Owned by one goroutine at a
// time; nil selects the fresh-allocation path.
type Workspace struct {
	a    analyzer
	slab scratch.Arena[netlist.NetID]
}

// Reset drops the references into the previous netlist so a retained
// workspace pins nothing. Buffer capacity survives.
func (w *Workspace) Reset() {
	w.a.n = nil
	w.a.drivers = nil
	clear(w.a.memos[:cap(w.a.memos)])
	w.a.memos = w.a.memos[:0]
	w.slab.Reset()
}

// Summary is the aggregate of a cone analysis: the paper's FanInLC,
// the deepest cone, and the number of cones. No per-cone records are
// kept — the measurement path needs only these sums.
type Summary struct {
	FanInLC  int
	MaxDepth int
	NumCones int
}

// AnalyzeSummary extracts every logic cone of the netlist and returns
// their summary. Endpoints are visited as primary outputs, then
// sequential cell inputs, then RAM pins. ws may be nil (fresh scratch)
// or a reused workspace; the summary is identical either way.
func AnalyzeSummary(n *netlist.Netlist, ws *Workspace) Summary {
	if ws == nil {
		ws = &Workspace{}
	}
	a := newAnalyzer(n, ws)
	var s Summary
	cone := func(root netlist.NetID) {
		if root == netlist.Nil {
			return
		}
		s.NumCones++
		s.FanInLC += a.collect(root)
		if d := int(a.depthOf(root)); d > s.MaxDepth {
			s.MaxDepth = d
		}
	}
	for _, p := range n.Outputs {
		cone(p.Net)
	}
	for ci := range n.Cells {
		c := &n.Cells[ci]
		switch c.Type {
		case netlist.DFF:
			cone(c.In[0])
		case netlist.Latch:
			cone(c.In[0])
			cone(c.In[1])
		}
	}
	for _, r := range n.RAMs {
		for _, wp := range r.WritePorts {
			cone(wp.En)
			for _, b := range wp.Addr {
				cone(b)
			}
			for _, b := range wp.Data {
				cone(b)
			}
		}
		for _, rp := range r.ReadPorts {
			for _, b := range rp.Addr {
				cone(b)
			}
		}
	}
	ws.Reset()
	return s
}
