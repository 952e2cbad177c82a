// Package netlist defines the gate-level intermediate representation
// produced by internal/synth: single-bit nets, primitive cells
// (inverters, two-input gates, muxes, flip-flops, latches), and RAM
// macros. It also implements the netlist optimization passes that a
// synthesis tool such as Design Compiler would run before reporting
// metrics: constant folding, structural hashing (common subexpression
// elimination), and dead-logic removal.
//
// The Table 3 synthesis metrics of the µComplexity paper — Cells, Nets,
// FFs, AreaL, AreaS, PowerD, PowerS — are all computed from this
// representation (see internal/synth and internal/power); FanInLC and
// Freq come from logic-cone and LUT analyses over the same structure
// (internal/cones, internal/fpga).
package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/scratch"
)

// NetID identifies a single-bit net. The zero value is valid (net 0);
// Nil marks absent optional pins.
type NetID int32

// Nil is the absent-net marker.
const Nil NetID = -1

// CellType enumerates primitive cells.
type CellType uint8

// Primitive cell types. Mux2 selects A when S=0 and B when S=1.
// DFF captures D on the clock edge; Latch is transparent while EN=1.
const (
	Inv CellType = iota
	Buf
	And2
	Or2
	Nand2
	Nor2
	Xor2
	Xnor2
	Mux2
	DFF
	Latch
	// NumCellTypes is the number of primitive cell types, for tables
	// indexed by CellType.
	NumCellTypes
)

func (t CellType) String() string {
	switch t {
	case Inv:
		return "INV"
	case Buf:
		return "BUF"
	case And2:
		return "AND2"
	case Or2:
		return "OR2"
	case Nand2:
		return "NAND2"
	case Nor2:
		return "NOR2"
	case Xor2:
		return "XOR2"
	case Xnor2:
		return "XNOR2"
	case Mux2:
		return "MUX2"
	case DFF:
		return "DFF"
	case Latch:
		return "LATCH"
	}
	return fmt.Sprintf("CellType(%d)", uint8(t))
}

// IsSequential reports whether the cell type is a state element.
func (t CellType) IsSequential() bool { return t == DFF || t == Latch }

// NumInputs returns the number of input pins of the cell type
// (excluding the DFF clock, which is tracked separately).
func (t CellType) NumInputs() int {
	switch t {
	case Inv, Buf:
		return 1
	case Mux2:
		return 3
	case DFF:
		return 1 // D; clock is in Cell.Clk
	case Latch:
		return 2 // D, EN
	default:
		return 2
	}
}

// Cell is one primitive cell instance.
type Cell struct {
	Type CellType
	// In holds the input pins: [a], [a b], [a b s] for Mux2 (s = In[2]),
	// [d] for DFF, [d en] for Latch.
	In  [3]NetID
	Clk NetID // DFF only; Nil otherwise
	Out NetID
}

// Inputs returns the used input pins.
func (c *Cell) Inputs() []NetID { return c.In[:c.Type.NumInputs()] }

// RAM is an inferred memory macro with synchronous write ports (all on
// one clock) and any number of asynchronous read ports. Write ports
// apply in order on the clock edge, so a later port wins when two
// enabled ports target the same address — matching the sequential
// semantics of the always block they were inferred from.
type RAM struct {
	Width int
	Depth int

	Clk        NetID
	WritePorts []RAMWritePort
	ReadPorts  []RAMReadPort
}

// RAMWritePort is one synchronous write port.
type RAMWritePort struct {
	En   NetID
	Addr []NetID
	Data []NetID
}

// RAMReadPort is one asynchronous read port: Out bits are driven by
// the RAM.
type RAMReadPort struct {
	Addr []NetID
	Out  []NetID
}

// PortBit names one bit of a top-level port.
type PortBit struct {
	Name string // "data[3]" or "clk"
	Net  NetID
}

// Netlist is a flattened gate-level design.
//
// Once built (by Builder.Build or OptimizeWS) a netlist is treated as
// immutable; the derived structures below (driver table, topological
// order, structural hash) are computed lazily on first use and cached,
// so every downstream pass — cones, fpga, timing, power, optimize —
// shares one copy instead of recomputing them. The cache is
// mutex-guarded, making concurrent analyses of a shared netlist (e.g.
// one synthesis result reused by parallel workers) race-free. A
// netlist OptimizeWS returned under a workspace keeps its driver
// table and topological order in that workspace's memory, valid as
// long as the netlist is (see Workspace).
type Netlist struct {
	// Nets is the total net count (including constants). Nets carry
	// no names: every metric is read from structure, and ports and RAM
	// macros keep their own names.
	Nets int

	Cells []Cell
	RAMs  []*RAM

	Const0, Const1 NetID

	Inputs  []PortBit
	Outputs []PortBit

	derived struct {
		mu       sync.Mutex
		drivers  []int
		topo     []int
		topoErr  error
		topoDone bool
		hash     string
		// ws, when set, holds the tables above and the scratch of
		// Stats and Validate; nil allocates them.
		ws *Workspace
	}
}

// NumNets returns the number of nets (including constants).
func (n *Netlist) NumNets() int { return n.Nets }

// TrimNames does nothing: netlists carry no per-net names. It is kept
// for callers outside this module written when they did.
func (n *Netlist) TrimNames() {}

// NumFFs counts DFF cells.
func (n *Netlist) NumFFs() int {
	c := 0
	for i := range n.Cells {
		if n.Cells[i].Type == DFF {
			c++
		}
	}
	return c
}

// Drivers returns, for every net, the index of the cell driving it
// (-1 for undriven nets: primary inputs, constants, RAM outputs). The
// table is computed once and shared: callers must treat it as
// read-only.
func (n *Netlist) Drivers() []int {
	n.derived.mu.Lock()
	defer n.derived.mu.Unlock()
	return n.driversLocked()
}

func (n *Netlist) driversLocked() []int {
	if n.derived.drivers == nil {
		var d []int
		if ws := n.derived.ws; ws != nil {
			d = scratch.Raw(&ws.tDrivers, n.NumNets())
		} else {
			d = make([]int, n.NumNets())
		}
		for i := range d {
			d[i] = -1
		}
		for i := range n.Cells {
			d[n.Cells[i].Out] = i
		}
		n.derived.drivers = d
	}
	return n.derived.drivers
}

// Hash returns a stable structural hash of the netlist: cells (type
// and pin wiring), RAM macros (shape and wiring; a RAM has no name),
// constants, and port bindings, hashed
// with SHA-256 and rendered as hex. The hash is computed once and
// cached; it keys content-addressed caches of synthesis derivatives
// (see internal/cache).
func (n *Netlist) Hash() string {
	n.derived.mu.Lock()
	defer n.derived.mu.Unlock()
	if n.derived.hash != "" {
		return n.derived.hash
	}
	// Fields are appended to a stack buffer that is handed to SHA-256
	// when (nearly) full, instead of one 8-byte write per field; the
	// bytes hashed, and so every digest, are the same.
	h := sha256.New()
	var buf [1024]byte
	fill := 0
	wInt := func(v int64) {
		if fill+8 > len(buf) {
			h.Write(buf[:fill])
			fill = 0
		}
		binary.LittleEndian.PutUint64(buf[fill:], uint64(v))
		fill += 8
	}
	wStr := func(s string) {
		wInt(int64(len(s)))
		for len(s) > 0 {
			if fill == len(buf) {
				h.Write(buf[:])
				fill = 0
			}
			k := copy(buf[fill:], s)
			fill += k
			s = s[k:]
		}
	}
	wIDs := func(ids []NetID) {
		wInt(int64(len(ids)))
		for _, id := range ids {
			wInt(int64(id))
		}
	}
	wStr("netlist-hash-v2")
	wInt(int64(n.NumNets()))
	wInt(int64(n.Const0))
	wInt(int64(n.Const1))
	wInt(int64(len(n.Cells)))
	for i := range n.Cells {
		c := &n.Cells[i]
		wInt(int64(c.Type))
		wInt(int64(c.In[0]))
		wInt(int64(c.In[1]))
		wInt(int64(c.In[2]))
		wInt(int64(c.Clk))
		wInt(int64(c.Out))
	}
	wInt(int64(len(n.RAMs)))
	for _, r := range n.RAMs {
		wInt(int64(r.Width))
		wInt(int64(r.Depth))
		wInt(int64(r.Clk))
		wInt(int64(len(r.WritePorts)))
		for _, wp := range r.WritePorts {
			wInt(int64(wp.En))
			wIDs(wp.Addr)
			wIDs(wp.Data)
		}
		wInt(int64(len(r.ReadPorts)))
		for _, rp := range r.ReadPorts {
			wIDs(rp.Addr)
			wIDs(rp.Out)
		}
	}
	wInt(int64(len(n.Inputs)))
	for _, p := range n.Inputs {
		wStr(p.Name)
		wInt(int64(p.Net))
	}
	wInt(int64(len(n.Outputs)))
	for _, p := range n.Outputs {
		wStr(p.Name)
		wInt(int64(p.Net))
	}
	h.Write(buf[:fill])
	n.derived.hash = hex.EncodeToString(h.Sum(nil))
	return n.derived.hash
}

// TrimDerived drops the lazily derived driver and topological-order
// tables, keeping the memoized structural hash. Both tables rebuild on
// demand, so this is purely a live-heap release for netlists retained
// beyond their measurement (the derived tables are sized by cell count
// and would otherwise dominate what the garbage collector has to carry
// for them).
func (n *Netlist) TrimDerived() {
	n.derived.mu.Lock()
	n.derived.drivers = nil
	n.derived.topo = nil
	n.derived.topoErr = nil
	n.derived.topoDone = false
	n.derived.mu.Unlock()
}

// TopoOrder returns the combinational cells in topological order
// (inputs before outputs). Sequential cells are excluded (their outputs
// are leaves). It returns an error if the combinational logic contains
// a cycle. The order is computed once and shared: callers must treat
// it as read-only.
func (n *Netlist) TopoOrder() ([]int, error) {
	n.derived.mu.Lock()
	defer n.derived.mu.Unlock()
	if !n.derived.topoDone {
		n.derived.topo, n.derived.topoErr = n.topoOrderLocked()
		n.derived.topoDone = true
	}
	return n.derived.topo, n.derived.topoErr
}

func (n *Netlist) topoOrderLocked() ([]int, error) {
	ws := n.derived.ws
	if ws == nil {
		order, _, err := n.topoOrderInto(n.driversLocked(), make([]byte, len(n.Cells)), nil, nil)
		return order, err
	}
	order, stack, err := n.topoOrderInto(n.driversLocked(), scratch.Zero(&ws.tState, len(n.Cells)), ws.tStack[:0], ws.tOrder[:0])
	ws.tStack = stack[:0]
	if err != nil {
		return nil, err
	}
	ws.tOrder = order[:0]
	return order, nil
}

// marksLocked returns a zeroed per-net byte map for one check: the
// workspace's DFS-state scratch when the netlist has one (it is free
// whenever the lock is held outside topoOrderLocked), else a fresh
// slice. The caller holds n.derived.mu for as long as it uses the map.
func (n *Netlist) marksLocked() []byte {
	if ws := n.derived.ws; ws != nil {
		return scratch.Zero(&ws.tState, n.NumNets())
	}
	return make([]byte, n.NumNets())
}

// topoOrderInto is the topological sort over caller-provided scratch:
// state must be len(Cells) and zeroed, stack and order are appended to
// from length zero (their capacity is reused). The returned stack lets
// a workspace keep its grown capacity.
func (n *Netlist) topoOrderInto(drivers []int, state []byte, stack []topoFrame, order []int) ([]int, []topoFrame, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	// Iterative DFS to avoid deep recursion on long gate chains.
	for start := range n.Cells {
		if n.Cells[start].Type.IsSequential() || state[start] != white {
			continue
		}
		stack = append(stack[:0], topoFrame{cell: start})
		state[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			cell := &n.Cells[f.cell]
			ins := cell.Inputs()
			if f.pin < len(ins) {
				pin := ins[f.pin]
				f.pin++
				if pin == Nil {
					continue
				}
				d := drivers[pin]
				if d < 0 || n.Cells[d].Type.IsSequential() {
					continue
				}
				switch state[d] {
				case white:
					state[d] = gray
					stack = append(stack, topoFrame{cell: d})
				case gray:
					return nil, stack, fmt.Errorf("netlist: combinational cycle through cell %d (%s) and %d (%s)",
						f.cell, cell.Type, d, n.Cells[d].Type)
				}
				continue
			}
			state[f.cell] = black
			order = append(order, f.cell)
			stack = stack[:len(stack)-1]
		}
	}
	return order, stack, nil
}

// Stats summarizes a netlist for reports and tests.
type Stats struct {
	Cells int // total cells (RAM macros count once each)
	Nets  int // nets referenced by live structure
	FFs   int
	RAMs  int
}

// Stats computes summary statistics. Nets counts every distinct net
// attached to a cell pin, port, or RAM pin.
func (n *Netlist) Stats() Stats {
	n.derived.mu.Lock()
	defer n.derived.mu.Unlock()
	used := n.marksLocked()
	mark := func(id NetID) {
		if id != Nil {
			used[id] = 1
		}
	}
	for i := range n.Cells {
		c := &n.Cells[i]
		for _, in := range c.Inputs() {
			mark(in)
		}
		mark(c.Clk)
		mark(c.Out)
	}
	for _, r := range n.RAMs {
		mark(r.Clk)
		for _, wp := range r.WritePorts {
			mark(wp.En)
			for _, b := range wp.Addr {
				mark(b)
			}
			for _, b := range wp.Data {
				mark(b)
			}
		}
		for _, rp := range r.ReadPorts {
			for _, b := range rp.Addr {
				mark(b)
			}
			for _, b := range rp.Out {
				mark(b)
			}
		}
	}
	for _, p := range n.Inputs {
		mark(p.Net)
	}
	for _, p := range n.Outputs {
		mark(p.Net)
	}
	nets := 0
	for _, u := range used {
		nets += int(u)
	}
	return Stats{
		Cells: len(n.Cells) + len(n.RAMs),
		Nets:  nets,
		FFs:   n.NumFFs(),
		RAMs:  len(n.RAMs),
	}
}
