package netlist

import (
	"fmt"

	"repro/internal/scratch"
)

// Builder constructs a Netlist incrementally. It supports net aliasing
// (union-find) so that hierarchical port connections can merge nets
// without buffer cells, and folds constants peephole-style as gates are
// created, which keeps the raw netlist close to what a synthesis tool
// emits after its first sweep.
type Builder struct {
	nets    int     // nets allocated (len of parent/named)
	parent  []NetID // union-find
	named   []bool  // representative preference
	cells   []Cell
	rams    []*RAM
	inputs  []PortBit
	outputs []PortBit

	const0, const1 NetID

	ws *Workspace

	// Alias-op recording for template-stamped lowering (internal/synth):
	// while logDepth > 0 every Alias call appends its raw arguments, so
	// a recorded lowering can be replayed verbatim against a stamped
	// copy's nets. Recordings nest (a template recorded while another is
	// being recorded shares the log); the log is reclaimed when the
	// outermost recording ends.
	logDepth int
	aliasLog []AliasPair
}

// AliasPair is one recorded Alias call: the raw, pre-resolution
// arguments in call order.
type AliasPair struct {
	X, Y NetID
}

// NewBuilder returns an empty builder with the two constant nets
// already allocated. Its internal buffers are drawn from ws (nil means
// a fresh workspace); ws must not be reused until Build has been
// called. Taking the buffers ends the life of the netlist the
// workspace's previous Build returned.
func NewBuilder(ws *Workspace) *Builder {
	ws = orFresh(ws)
	ws.Reset()
	b := &Builder{
		ws:       ws,
		parent:   ws.bParent[:0],
		named:    ws.bNamed[:0],
		cells:    ws.bCells[:0],
		rams:     ws.bRAMs[:0],
		inputs:   ws.bInputs[:0],
		outputs:  ws.bOutputs[:0],
		aliasLog: ws.bAliasLog[:0],
	}
	b.const0 = b.NewNet(true)
	b.const1 = b.NewNet(true)
	return b
}

// Const0 returns the constant-0 net.
func (b *Builder) Const0() NetID { return b.const0 }

// Const1 returns the constant-1 net.
func (b *Builder) Const1() NetID { return b.const1 }

// ConstBit returns Const1 for true, Const0 for false.
func (b *Builder) ConstBit(v bool) NetID {
	if v {
		return b.const1
	}
	return b.const0
}

// NewNet allocates a net. named marks it as a user-visible signal,
// preferred as alias representative; template stamping passes a
// recorded net's flag so the union-find picks identical
// representatives.
func (b *Builder) NewNet(named bool) NetID {
	id := NetID(b.nets)
	b.nets++
	b.parent = append(b.parent, id)
	b.named = append(b.named, named)
	return id
}

// Find returns the alias representative of n.
func (b *Builder) Find(n NetID) NetID {
	if n == Nil {
		return Nil
	}
	root := n
	for b.parent[root] != root {
		root = b.parent[root]
	}
	for b.parent[n] != root {
		b.parent[n], n = root, b.parent[n]
	}
	return root
}

// Alias merges nets a and b into one. Constants and named nets win
// representative selection; aliasing both constants together is an
// error (it means the design shorted 0 to 1).
func (b *Builder) Alias(x, y NetID) error {
	if b.logDepth > 0 {
		b.aliasLog = append(b.aliasLog, AliasPair{X: x, Y: y})
	}
	rx, ry := b.Find(x), b.Find(y)
	if rx == ry {
		return nil
	}
	cx := rx == b.const0 || rx == b.const1
	cy := ry == b.const0 || ry == b.const1
	if cx && cy {
		return fmt.Errorf("netlist: aliasing const0 with const1 (contradictory drivers)")
	}
	// Prefer constants, then named nets, as representatives.
	keep, drop := rx, ry
	if cy || (!cx && b.named[ry] && !b.named[rx]) {
		keep, drop = ry, rx
	}
	b.parent[drop] = keep
	return nil
}

// IsConst reports whether net n is (an alias of) a constant, and its
// value.
func (b *Builder) IsConst(n NetID) (val bool, ok bool) {
	r := b.Find(n)
	if r == b.const0 {
		return false, true
	}
	if r == b.const1 {
		return true, true
	}
	return false, false
}

// AddInput declares a top-level input bit.
func (b *Builder) AddInput(name string, n NetID) {
	b.inputs = append(b.inputs, PortBit{Name: name, Net: n})
}

// AddOutput declares a top-level output bit.
func (b *Builder) AddOutput(name string, n NetID) {
	b.outputs = append(b.outputs, PortBit{Name: name, Net: n})
}

// AddRAM registers a RAM macro.
func (b *Builder) AddRAM(r *RAM) { b.rams = append(b.rams, r) }

// NetCount returns the number of nets allocated so far. Together with
// CellCount and PushAliasLog it delimits a recording window for
// template-stamped lowering.
func (b *Builder) NetCount() int { return b.nets }

// NamedAt returns the representative-preference flag net id was
// allocated with.
func (b *Builder) NamedAt(id NetID) bool { return b.named[id] }

// CellCount returns the number of cells appended so far.
func (b *Builder) CellCount() int { return len(b.cells) }

// CellsFrom returns a read-only view of the cells appended since index
// start. Pins are the raw (pre-resolution) values the cells were
// created with.
func (b *Builder) CellsFrom(start int) []Cell {
	return b.cells[start:len(b.cells):len(b.cells)]
}

// StampCell appends a fully-formed cell without allocating its output
// net: the caller provides every pin, typically renumbered from a
// recorded template. Pins still resolve through the union-find at
// Build time.
func (b *Builder) StampCell(c Cell) { b.cells = append(b.cells, c) }

// PushAliasLog starts (or nests) alias recording and returns the log
// position the caller should later pass to PopAliasLog.
func (b *Builder) PushAliasLog() int {
	b.logDepth++
	return len(b.aliasLog)
}

// PopAliasLog ends the innermost alias recording and returns the
// entries appended since the matching PushAliasLog. The returned slice
// aliases the builder's internal log: it is valid only until the next
// Alias call, so callers must copy what they keep.
func (b *Builder) PopAliasLog(start int) []AliasPair {
	b.logDepth--
	out := b.aliasLog[start:len(b.aliasLog):len(b.aliasLog)]
	if b.logDepth == 0 {
		b.aliasLog = b.aliasLog[:0]
	}
	return out
}

// rawCell appends a cell driving a fresh anonymous net and returns the
// output net.
func (b *Builder) rawCell(t CellType, a, bb, c NetID, clk NetID) NetID {
	out := b.NewNet(false)
	b.cells = append(b.cells, Cell{Type: t, In: [3]NetID{a, bb, c}, Clk: clk, Out: out})
	return out
}

// Not returns ~a, folding constants and double inversions.
func (b *Builder) Not(a NetID) NetID {
	if v, ok := b.IsConst(a); ok {
		return b.ConstBit(!v)
	}
	return b.rawCell(Inv, a, Nil, Nil, Nil)
}

// And returns a & c with constant folding and idempotence.
func (b *Builder) And(a, c NetID) NetID {
	if v, ok := b.IsConst(a); ok {
		if !v {
			return b.const0
		}
		return c
	}
	if v, ok := b.IsConst(c); ok {
		if !v {
			return b.const0
		}
		return a
	}
	if b.Find(a) == b.Find(c) {
		return a
	}
	return b.rawCell(And2, a, c, Nil, Nil)
}

// Or returns a | c with constant folding and idempotence.
func (b *Builder) Or(a, c NetID) NetID {
	if v, ok := b.IsConst(a); ok {
		if v {
			return b.const1
		}
		return c
	}
	if v, ok := b.IsConst(c); ok {
		if v {
			return b.const1
		}
		return a
	}
	if b.Find(a) == b.Find(c) {
		return a
	}
	return b.rawCell(Or2, a, c, Nil, Nil)
}

// Xor returns a ^ c with constant folding.
func (b *Builder) Xor(a, c NetID) NetID {
	if v, ok := b.IsConst(a); ok {
		if v {
			return b.Not(c)
		}
		return c
	}
	if v, ok := b.IsConst(c); ok {
		if v {
			return b.Not(a)
		}
		return a
	}
	if b.Find(a) == b.Find(c) {
		return b.const0
	}
	return b.rawCell(Xor2, a, c, Nil, Nil)
}

// Xnor returns ~(a ^ c).
func (b *Builder) Xnor(a, c NetID) NetID { return b.Not(b.Xor(a, c)) }

// Mux returns s ? bb : a (a when s=0), with constant folding.
func (b *Builder) Mux(s, a, bb NetID) NetID {
	if v, ok := b.IsConst(s); ok {
		if v {
			return bb
		}
		return a
	}
	if b.Find(a) == b.Find(bb) {
		return a
	}
	// mux(s, 0, 1) = s; mux(s, 1, 0) = ~s
	av, aok := b.IsConst(a)
	bv, bok := b.IsConst(bb)
	if aok && bok {
		if !av && bv {
			return s
		}
		if av && !bv {
			return b.Not(s)
		}
	}
	return b.rawCell(Mux2, a, bb, s, Nil)
}

// NewDFF creates a flip-flop capturing d on clk and returns Q.
func (b *Builder) NewDFF(d, clk NetID) NetID {
	return b.rawCell(DFF, d, Nil, Nil, clk)
}

// NewLatch creates a transparent latch (Q follows d while en=1).
func (b *Builder) NewLatch(d, en NetID) NetID {
	return b.rawCell(Latch, d, en, Nil, Nil)
}

// Build resolves aliases, compacts nets, and returns the final Netlist.
// Cell output nets that were aliased to constants are rejected (that
// would be a short).
//
// The netlist is the builder's own buffers, renumbered in place: its
// cells and ports live in the workspace the builder was made with and
// stay valid until that workspace's next NewBuilder or Reset. Only the RAM
// macros are copied (the builder's are the caller's). Under a nil
// workspace the buffers are the builder's alone, so the netlist is
// independent of every later call.
func (b *Builder) Build() (*Netlist, error) {
	// Return the (possibly grown) buffers to the workspace so their
	// capacity carries to the next build, error or not.
	defer func() {
		ws := b.ws
		ws.bParent = b.parent[:0]
		ws.bNamed = b.named[:0]
		ws.bCells = b.cells[:0]
		ws.bRAMs = b.rams[:0]
		ws.bInputs = b.inputs[:0]
		ws.bOutputs = b.outputs[:0]
		ws.bAliasLog = b.aliasLog[:0]
	}()
	// Resolve all pins through the union-find.
	for i := range b.cells {
		c := &b.cells[i]
		for j := range c.In {
			if c.In[j] != Nil {
				c.In[j] = b.Find(c.In[j])
			}
		}
		if c.Clk != Nil {
			c.Clk = b.Find(c.Clk)
		}
		c.Out = b.Find(c.Out)
	}
	resolve := func(ids []NetID) {
		for i, id := range ids {
			if id != Nil {
				ids[i] = b.Find(id)
			}
		}
	}
	for _, r := range b.rams {
		r.Clk = b.Find(r.Clk)
		for i := range r.WritePorts {
			r.WritePorts[i].En = b.Find(r.WritePorts[i].En)
			resolve(r.WritePorts[i].Addr)
			resolve(r.WritePorts[i].Data)
		}
		for i := range r.ReadPorts {
			resolve(r.ReadPorts[i].Addr)
			resolve(r.ReadPorts[i].Out)
		}
	}
	for i := range b.inputs {
		b.inputs[i].Net = b.Find(b.inputs[i].Net)
	}
	for i := range b.outputs {
		b.outputs[i].Net = b.Find(b.outputs[i].Net)
	}

	// Detect multiple drivers and cells driving constants. Driver
	// identities are packed into one int32 per net ((index<<2 | kind) + 1,
	// 0 = undriven) and only decoded into descriptions when an error is
	// actually reported — this loop runs once per cell on the success
	// path, with no map traffic.
	const (
		drvCell  = 0
		drvRAM   = 1
		drvInput = 2
	)
	pack := func(kind, idx int) int32 { return int32(idx<<2|kind) + 1 }
	describe := func(code int32, net NetID) string {
		code--
		idx := int(code >> 2)
		switch code & 3 {
		case drvCell:
			return fmt.Sprintf("cell %d (%s)", idx, b.cells[idx].Type)
		case drvRAM:
			r := b.rams[idx]
			for pi, rp := range r.ReadPorts {
				for _, o := range rp.Out {
					if o == net {
						return fmt.Sprintf("RAM %d read port %d", idx, pi)
					}
				}
			}
			return fmt.Sprintf("RAM %d read port", idx)
		default:
			return "input " + b.inputs[idx].Name
		}
	}
	seen := scratch.Zero(&b.ws.bSeen, b.nets)
	c0, c1 := b.Find(b.const0), b.Find(b.const1)
	for i := range b.cells {
		out := b.cells[i].Out
		if out == c0 || out == c1 {
			return nil, fmt.Errorf("netlist: %s drives a constant net", describe(pack(drvCell, i), out))
		}
		if prev := seen[out]; prev != 0 {
			return nil, fmt.Errorf("netlist: net %d driven by both %s and %s", out, describe(prev, out), describe(pack(drvCell, i), out))
		}
		seen[out] = pack(drvCell, i)
	}
	for ri, r := range b.rams {
		for _, rp := range r.ReadPorts {
			for _, o := range rp.Out {
				if prev := seen[o]; prev != 0 {
					return nil, fmt.Errorf("netlist: net %d driven by both %s and %s", o, describe(prev, o), describe(pack(drvRAM, ri), o))
				}
				seen[o] = pack(drvRAM, ri)
			}
		}
	}
	for pi, p := range b.inputs {
		if prev := seen[p.Net]; prev != 0 {
			return nil, fmt.Errorf("netlist: input %s conflicts with %s", p.Name, describe(prev, p.Net))
		}
		seen[p.Net] = pack(drvInput, pi)
	}

	// Compact: renumber only referenced representatives. The remap table
	// is a dense slice (0 = unseen, else compacted id + 1): net ids are
	// contiguous builder allocations, so a map would only add hashing
	// overhead on this hot path.
	remap := scratch.Zero(&b.ws.bRemap, b.nets)
	count := 0
	get := func(id NetID) NetID {
		if id == Nil {
			return Nil
		}
		if v := remap[id]; v != 0 {
			return v - 1
		}
		nid := NetID(count)
		count++
		remap[id] = nid + 1
		return nid
	}
	nl := &Netlist{}
	nl.Const0 = get(c0)
	nl.Const1 = get(c1)
	for i := range b.cells {
		c := &b.cells[i]
		for j := range c.In {
			c.In[j] = get(c.In[j])
		}
		c.Clk = get(c.Clk)
		c.Out = get(c.Out)
	}
	for ri, r := range b.rams {
		rc := *r
		rc.Clk = get(r.Clk)
		rc.WritePorts = make([]RAMWritePort, len(r.WritePorts))
		for i, wp := range r.WritePorts {
			rc.WritePorts[i] = RAMWritePort{En: get(wp.En), Addr: mapIDs(wp.Addr, get), Data: mapIDs(wp.Data, get)}
		}
		rc.ReadPorts = make([]RAMReadPort, len(r.ReadPorts))
		for i, rp := range r.ReadPorts {
			rc.ReadPorts[i] = RAMReadPort{Addr: mapIDs(rp.Addr, get), Out: mapIDs(rp.Out, get)}
		}
		b.rams[ri] = &rc
	}
	for i := range b.inputs {
		b.inputs[i].Net = get(b.inputs[i].Net)
	}
	for i := range b.outputs {
		b.outputs[i].Net = get(b.outputs[i].Net)
	}
	nl.Nets = count
	nl.Cells = b.cells[:len(b.cells):len(b.cells)]
	nl.RAMs = b.rams[:len(b.rams):len(b.rams)]
	nl.Inputs = b.inputs[:len(b.inputs):len(b.inputs)]
	nl.Outputs = b.outputs[:len(b.outputs):len(b.outputs)]
	return nl, nil
}

func mapIDs(ids []NetID, f func(NetID) NetID) []NetID {
	out := make([]NetID, len(ids))
	for i, id := range ids {
		out[i] = f(id)
	}
	return out
}
