// Package sim provides simulation for both levels of the µComplexity
// measurement pipeline: a cycle-based RTL interpreter over elaborated
// µHDL (the paper's "RTL Verification" substrate) and a gate-level
// simulator over synthesized netlists, plus random-vector equivalence
// checking between the two. The equivalence checker is how the
// reproduction validates that internal/synth preserves behaviour, which
// in turn makes the synthesis metrics trustworthy.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/netlist"
)

// GateSim simulates a netlist cycle by cycle. All flip-flops are
// assumed to share one clock domain: Step() captures every DFF and
// performs RAM writes, then re-settles combinational logic. Latches
// are settled transparently inside Eval.
type GateSim struct {
	nl    *netlist.Netlist
	vals  []bool
	order []int
	rams  []ramState

	inputBits  map[string][]netlist.NetID // base name → bit nets (LSB first)
	outputBits map[string][]netlist.NetID
}

type ramState struct {
	r    *netlist.RAM
	data []uint64
}

// NewGateSim prepares a simulator. The netlist must be acyclic in its
// combinational part.
func NewGateSim(nl *netlist.Netlist) (*GateSim, error) {
	order, err := nl.TopoOrder()
	if err != nil {
		return nil, err
	}
	g := &GateSim{
		nl:         nl,
		vals:       make([]bool, nl.NumNets()),
		order:      order,
		inputBits:  groupPortBits(nl.Inputs),
		outputBits: groupPortBits(nl.Outputs),
	}
	g.vals[nl.Const1] = true
	for _, r := range nl.RAMs {
		g.rams = append(g.rams, ramState{r: r, data: make([]uint64, r.Depth)})
	}
	return g, nil
}

// groupPortBits groups "name[idx]" port bits under their base name in
// ascending bit order (ports are emitted LSB first by the
// synthesizer).
func groupPortBits(ports []netlist.PortBit) map[string][]netlist.NetID {
	out := map[string][]netlist.NetID{}
	for _, p := range ports {
		base := p.Name
		if i := strings.IndexByte(base, '['); i >= 0 {
			base = base[:i]
		}
		out[base] = append(out[base], p.Net)
	}
	return out
}

// SetInput assigns an input port (by base name) a value. Extra value
// bits beyond the port width are ignored.
func (g *GateSim) SetInput(name string, val uint64) error {
	bits, ok := g.inputBits[name]
	if !ok {
		return fmt.Errorf("sim: no input %q (have %v)", name, sortedNames(g.inputBits))
	}
	for i, nid := range bits {
		g.vals[nid] = (val>>uint(i))&1 == 1
	}
	return nil
}

// Output reads an output port (by base name) as a uint64.
func (g *GateSim) Output(name string) (uint64, error) {
	bits, ok := g.outputBits[name]
	if !ok {
		return 0, fmt.Errorf("sim: no output %q (have %v)", name, sortedNames(g.outputBits))
	}
	var v uint64
	for i, nid := range bits {
		if g.vals[nid] {
			v |= 1 << uint(i)
		}
	}
	return v, nil
}

// OutputNames returns the base names of the outputs, sorted.
func (g *GateSim) OutputNames() []string { return sortedNames(g.outputBits) }

// InputNames returns the base names of the inputs, sorted.
func (g *GateSim) InputNames() []string { return sortedNames(g.inputBits) }

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (g *GateSim) evalCell(c *netlist.Cell) bool {
	in := func(i int) bool { return g.vals[c.In[i]] }
	switch c.Type {
	case netlist.Inv:
		return !in(0)
	case netlist.Buf:
		return in(0)
	case netlist.And2:
		return in(0) && in(1)
	case netlist.Or2:
		return in(0) || in(1)
	case netlist.Nand2:
		return !(in(0) && in(1))
	case netlist.Nor2:
		return !(in(0) || in(1))
	case netlist.Xor2:
		return in(0) != in(1)
	case netlist.Xnor2:
		return in(0) == in(1)
	case netlist.Mux2:
		if in(2) {
			return in(1)
		}
		return in(0)
	}
	panic(fmt.Sprintf("sim: evalCell on %s", c.Type))
}

func (g *GateSim) readBits(ids []netlist.NetID) uint64 {
	var v uint64
	for i, id := range ids {
		if g.vals[id] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// Eval settles combinational logic, transparent latches, and RAM read
// ports to a fixpoint. It returns an error if the network oscillates.
func (g *GateSim) Eval() error {
	for iter := 0; iter < 100; iter++ {
		// One combinational sweep in topological order.
		for _, ci := range g.order {
			c := &g.nl.Cells[ci]
			g.vals[c.Out] = g.evalCell(c)
		}
		changed := false
		// RAM asynchronous reads.
		for i := range g.rams {
			rs := &g.rams[i]
			for _, rp := range rs.r.ReadPorts {
				addr := g.readBits(rp.Addr)
				var word uint64
				if addr < uint64(len(rs.data)) {
					word = rs.data[addr]
				}
				for b, nid := range rp.Out {
					nv := (word>>uint(b))&1 == 1
					if g.vals[nid] != nv {
						g.vals[nid] = nv
						changed = true
					}
				}
			}
		}
		// Transparent latches.
		for ci := range g.nl.Cells {
			c := &g.nl.Cells[ci]
			if c.Type != netlist.Latch {
				continue
			}
			if g.vals[c.In[1]] { // EN
				nv := g.vals[c.In[0]]
				if g.vals[c.Out] != nv {
					g.vals[c.Out] = nv
					changed = true
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("sim: combinational network did not settle (latch/RAM oscillation)")
}

// Step advances one clock cycle: settle, capture every DFF and RAM
// write, then settle again.
func (g *GateSim) Step() error {
	if err := g.Eval(); err != nil {
		return err
	}
	// Capture all D values first (simultaneous update).
	type upd struct {
		out netlist.NetID
		val bool
	}
	var updates []upd
	for ci := range g.nl.Cells {
		c := &g.nl.Cells[ci]
		if c.Type == netlist.DFF {
			updates = append(updates, upd{out: c.Out, val: g.vals[c.In[0]]})
		}
	}
	// RAM writes sample pre-edge values too. Ports apply in order, so
	// a later enabled port wins on an address collision — matching the
	// sequential semantics of the inferring always block.
	type ramUpd struct {
		rs   *ramState
		addr uint64
		data uint64
	}
	var ramUpds []ramUpd
	for i := range g.rams {
		rs := &g.rams[i]
		for _, wp := range rs.r.WritePorts {
			if g.vals[wp.En] {
				ramUpds = append(ramUpds, ramUpd{
					rs:   rs,
					addr: g.readBits(wp.Addr),
					data: g.readBits(wp.Data),
				})
			}
		}
	}
	for _, u := range updates {
		g.vals[u.out] = u.val
	}
	for _, u := range ramUpds {
		if u.addr < uint64(len(u.rs.data)) {
			u.rs.data[u.addr] = u.data
		}
	}
	return g.Eval()
}
