package netlist

import "fmt"

// Validate checks the structural invariants every netlist built by
// Builder.Build or OptimizeWS satisfies: every net reference (cell
// pins, RAM ports, top-level ports, constants) is Nil or inside
// [0, Nets), every cell type is known, no net has two drivers among
// the cells, RAM read ports and input ports, and the combinational
// cells form no cycle. Synthesis runs it on each
// optimized netlist as a self-check, and internal/codec on each
// netlist it rebuilds from bytes, so downstream kernels — which index
// by NetID without bounds checks — see only netlists as well-formed as
// freshly built ones. Nothing is formatted until a check fails; the
// driver table and topological order it computes are the netlist's
// memoized ones (Drivers, TopoOrder).
func (n *Netlist) Validate() error {
	ok := func(id NetID) bool { return id == Nil || (id >= 0 && int(id) < n.Nets) }
	okRun := func(ids []NetID) bool {
		for _, id := range ids {
			if !ok(id) {
				return false
			}
		}
		return true
	}
	if n.Nets < 0 {
		return fmt.Errorf("netlist: negative net count %d", n.Nets)
	}
	if !ok(n.Const0) || !ok(n.Const1) {
		return fmt.Errorf("netlist: constant nets %d,%d outside range [0,%d)", n.Const0, n.Const1, n.Nets)
	}
	for i := range n.Cells {
		c := &n.Cells[i]
		if c.Type >= NumCellTypes {
			return fmt.Errorf("netlist: cell %d has unknown type %d", i, c.Type)
		}
		if c.Out == Nil {
			return fmt.Errorf("netlist: cell %d has no output net", i)
		}
		if !ok(c.In[0]) || !ok(c.In[1]) || !ok(c.In[2]) || !ok(c.Clk) || !ok(c.Out) {
			return fmt.Errorf("netlist: cell %d references a net outside range [0,%d)", i, n.Nets)
		}
	}
	for ri, r := range n.RAMs {
		if r == nil {
			return fmt.Errorf("netlist: RAM %d is nil", ri)
		}
		if r.Width < 0 || r.Depth < 0 {
			return fmt.Errorf("netlist: RAM %d has negative shape %dx%d", ri, r.Width, r.Depth)
		}
		if !ok(r.Clk) {
			return fmt.Errorf("netlist: RAM %d clock outside range [0,%d)", ri, n.Nets)
		}
		for pi, wp := range r.WritePorts {
			if !ok(wp.En) || !okRun(wp.Addr) || !okRun(wp.Data) {
				return fmt.Errorf("netlist: RAM %d write port %d references a net outside range [0,%d)", ri, pi, n.Nets)
			}
		}
		for pi, rp := range r.ReadPorts {
			if !okRun(rp.Addr) || !okRun(rp.Out) {
				return fmt.Errorf("netlist: RAM %d read port %d references a net outside range [0,%d)", ri, pi, n.Nets)
			}
		}
	}
	for _, p := range n.Inputs {
		if !ok(p.Net) {
			return fmt.Errorf("netlist: input port %s references net %d outside range [0,%d)", p.Name, p.Net, n.Nets)
		}
	}
	for _, p := range n.Outputs {
		if !ok(p.Net) {
			return fmt.Errorf("netlist: output port %s references net %d outside range [0,%d)", p.Name, p.Net, n.Nets)
		}
	}
	if err := n.checkDrivers(); err != nil {
		return err
	}
	_, err := n.TopoOrder()
	return err
}

// checkDrivers is Validate's driver check. The driver table records
// the last cell driving each net, so any other cell driving the same
// net finds a different index there. RAM read ports and input ports
// drive nets too: each claims its net in a per-net map, and a net
// already driven by a cell or claimed is rejected, as Builder.Build
// rejects it.
func (n *Netlist) checkDrivers() error {
	n.derived.mu.Lock()
	defer n.derived.mu.Unlock()
	drivers := n.driversLocked()
	for i := range n.Cells {
		if out := n.Cells[i].Out; drivers[out] != i {
			return fmt.Errorf("netlist: net %d multiply driven", out)
		}
	}
	claimed := n.marksLocked()
	claim := func(id NetID) bool {
		if id == Nil {
			return true
		}
		if drivers[id] >= 0 || claimed[id] != 0 {
			return false
		}
		claimed[id] = 1
		return true
	}
	for ri, r := range n.RAMs {
		for pi, rp := range r.ReadPorts {
			for _, o := range rp.Out {
				if !claim(o) {
					return fmt.Errorf("netlist: net %d driven by RAM %d read port %d and another driver", o, ri, pi)
				}
			}
		}
	}
	for _, p := range n.Inputs {
		if !claim(p.Net) {
			return fmt.Errorf("netlist: net %d driven by input port %s and another driver", p.Net, p.Name)
		}
	}
	return nil
}
