package synth

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/elab"
	"repro/internal/netlist"
)

// Template-stamped lowering.
//
// Generate-loop replication (the IVM and PUMA designs instantiate the
// same execution cluster or memory bank four or five times) makes the
// lowering re-run symbolic execution and expression lowering per
// instance even though every copy produces the same gates modulo net
// numbering. Instead, the first child of each (module, parameter
// signature, port-binding pattern) is recorded *while it lowers
// directly into the main builder*: the window of nets and cells it
// appends, every Alias call it makes (raw arguments, in order), and
// every RAM read/write site it registers. Each further child with the
// same key replays the recording against freshly allocated nets — an
// O(gates) copy instead of a full re-lowering. The recordings live on
// the Workspace until its Reset, so one serves every later lowering of
// the batch as well (the key then also carries the dedup flag, which
// changes how a body lowers).
//
// Why replay is bit-identical to direct lowering:
//
//   - Cells store raw (pre-union-find) pins, and every pin a body
//     references is a constant, one of the child's own port bits, or a
//     net allocated inside the recorded window (endRecord verifies
//     this; shapes that violate it are marked unstampable and lower
//     directly). Renumbering window nets and substituting the new
//     child's port bits therefore reproduces the exact cell list a
//     direct lowering would append.
//   - Alias calls are re-executed, not copied: representative
//     selection depends only on whether the two class roots are
//     constants or named, and both properties are invariant across
//     instances with the same port pattern (port-bit classes always
//     root at a named parent net, a port bit, or a constant).
//   - All data-dependent decisions the body makes while lowering
//     (constant folding in the builder's gate helpers, Find equality)
//     observe only the constness and equality classes of the child's
//     port bits — exactly what the pattern key captures — plus
//     body-internal state that replay reproduces.
//
// The port-binding pattern is computed after bindChild: one entry per
// port bit, in module port order — '0'/'1' when the bound net is (an
// alias of) a constant, else the equality class of its union-find
// root. Two instances with equal signature and pattern are
// indistinguishable to the lowering, so they may share a template.

// template is one recorded lowering, renumbered into a compact id
// space: 0 = const0, 1 = const1, 2..2+numPort-1 = the child's port
// bits in (module port, bit) order, then the body nets in allocation
// order. -1 passes Nil through.
type template struct {
	numPort   int
	numBody   int
	bodyNamed []bool // named-preference flag of each body net
	cells     []netlist.Cell
	aliases   [][2]int32
	rams      []tmplRAM
	// dedupedDelta/stampedDelta replicate the bookkeeping a direct
	// lowering of the subtree would have added (internal duplicates,
	// nested stamps), keeping Result.Deduped identical either way.
	dedupedDelta int
	stampedDelta int
}

type tmplRAM struct {
	relPath string // "" for the child itself, else ".sub.path"
	mem     string
	width   int
	depth   int64
	writes  []tmplWrite
	reads   []tmplRead
}

type tmplWrite struct {
	clk, en int32
	addr    []int32
	data    []int32
}

type tmplRead struct {
	addr []int32
	out  []int32
}

// portPattern renders the binding context of a just-bound child: per
// port bit (inputs and outputs alike), constness or union-find
// equality class. It is the part of the template key that captures
// everything the body's lowering decisions can observe about the
// parent.
func (s *synthesizer) portPattern(inst *elab.Instance) string {
	var sb []byte
	var classes map[netlist.NetID]int
	for _, port := range inst.Module.Ports {
		for _, bit := range s.netBits(inst, port.Name) {
			r := s.b.Find(bit)
			if v, ok := s.b.IsConst(r); ok {
				if v {
					sb = append(sb, '1')
				} else {
					sb = append(sb, '0')
				}
				continue
			}
			if classes == nil {
				classes = map[netlist.NetID]int{}
			}
			id, ok := classes[r]
			if !ok {
				id = len(classes)
				classes[r] = id
			}
			sb = append(sb, 'n')
			sb = strconv.AppendInt(sb, int64(id), 10)
			sb = append(sb, ';')
		}
	}
	return string(sb)
}

// recFrame marks the start of a recording window in the main builder.
type recFrame struct {
	inst       *elab.Instance
	startNet   int
	startCell  int
	startAlias int
	startDedup int
	startStamp int
}

func (s *synthesizer) beginRecord(inst *elab.Instance) recFrame {
	return recFrame{
		inst:       inst,
		startNet:   s.b.NetCount(),
		startCell:  s.b.CellCount(),
		startAlias: s.b.PushAliasLog(),
		startDedup: s.deduped,
		startStamp: s.stamped,
	}
}

// endRecord closes the recording window and, when the recorded ops are
// self-contained, registers the template under key. A window whose
// cells or aliases reach nets outside (constants, the child's port
// bits, the window itself) is registered as nil — known unstampable —
// so later instances simply lower directly.
func (s *synthesizer) endRecord(f recFrame, key string, valid bool) {
	aliases := s.b.PopAliasLog(f.startAlias)
	if !valid {
		return
	}
	n0, n1 := f.startNet, s.b.NetCount()

	numPort := 0
	portMap := map[netlist.NetID]int32{}
	for _, port := range f.inst.Module.Ports {
		for _, bit := range s.netBits(f.inst, port.Name) {
			portMap[bit] = int32(2 + numPort)
			numPort++
		}
	}
	base := int32(2 + numPort)
	closed := true
	mapID := func(id netlist.NetID) int32 {
		switch {
		case id == netlist.Nil:
			return -1
		case id == s.b.Const0():
			return 0
		case id == s.b.Const1():
			return 1
		}
		if c, isPort := portMap[id]; isPort {
			return c
		}
		if int(id) >= n0 && int(id) < n1 {
			return base + int32(int(id)-n0)
		}
		closed = false
		return -1
	}
	mapIDs := func(ids []netlist.NetID) []int32 {
		out := make([]int32, len(ids))
		for i, id := range ids {
			out[i] = mapID(id)
		}
		return out
	}

	t := &template{
		numPort:      numPort,
		numBody:      n1 - n0,
		bodyNamed:    make([]bool, n1-n0),
		dedupedDelta: s.deduped - f.startDedup,
		stampedDelta: s.stamped - f.startStamp,
	}
	for i := range t.bodyNamed {
		t.bodyNamed[i] = s.b.NamedAt(netlist.NetID(n0 + i))
	}
	rawCells := s.b.CellsFrom(f.startCell)
	t.cells = make([]netlist.Cell, len(rawCells))
	for i, c := range rawCells {
		t.cells[i] = netlist.Cell{
			Type: c.Type,
			In:   [3]netlist.NetID{netlist.NetID(mapID(c.In[0])), netlist.NetID(mapID(c.In[1])), netlist.NetID(mapID(c.In[2]))},
			Clk:  netlist.NetID(mapID(c.Clk)),
			Out:  netlist.NetID(mapID(c.Out)),
		}
	}
	t.aliases = make([][2]int32, len(aliases))
	for i, al := range aliases {
		t.aliases[i] = [2]int32{mapID(al.X), mapID(al.Y)}
	}
	// RAM sites created anywhere in the recorded subtree: their paths
	// are unique to the subtree's instances, so every matching entry
	// was born inside this window.
	prefix := f.inst.Path
	for k, rb := range s.ws.rams {
		if k.path != prefix && !strings.HasPrefix(k.path, prefix+".") {
			continue
		}
		tr := tmplRAM{relPath: k.path[len(prefix):], mem: k.mem, width: rb.width, depth: rb.depth}
		for _, w := range rb.writes {
			tr.writes = append(tr.writes, tmplWrite{clk: mapID(w.clk), en: mapID(w.en), addr: mapIDs(w.addr), data: mapIDs(w.data)})
		}
		for _, rp := range rb.reads {
			tr.reads = append(tr.reads, tmplRead{addr: mapIDs(rp.Addr), out: mapIDs(rp.Out)})
		}
		t.rams = append(t.rams, tr)
	}
	if !closed {
		s.ws.tmpl[key] = nil
		return
	}
	s.ws.tmpl[key] = t
}

// stampChild replays a template against a freshly-bound child: bulk
// net allocation for the body, a straight cell copy, and re-executed
// aliases.
func (s *synthesizer) stampChild(child *elab.Child, t *template) error {
	inst := child.Inst
	m := s.idSlice(2 + t.numPort + t.numBody)
	m[0], m[1] = s.b.Const0(), s.b.Const1()
	i := 2
	for _, port := range inst.Module.Ports {
		for _, bit := range s.netBits(inst, port.Name) {
			m[i] = bit
			i++
		}
	}
	if i != 2+t.numPort {
		return fmt.Errorf("synth: stamping %s: port bit count %d does not match template %d", inst.Path, i-2, t.numPort)
	}
	for _, named := range t.bodyNamed {
		m[i] = s.b.NewNet(named)
		i++
	}
	get := func(c netlist.NetID) netlist.NetID {
		if c < 0 {
			return netlist.Nil
		}
		return m[c]
	}
	get32 := func(c int32) netlist.NetID {
		if c < 0 {
			return netlist.Nil
		}
		return m[c]
	}
	getIDs := func(cs []int32) []netlist.NetID {
		out := s.idSlice(len(cs))
		for j, c := range cs {
			out[j] = get32(c)
		}
		return out
	}
	for _, c := range t.cells {
		s.b.StampCell(netlist.Cell{
			Type: c.Type,
			In:   [3]netlist.NetID{get(c.In[0]), get(c.In[1]), get(c.In[2])},
			Clk:  get(c.Clk),
			Out:  get(c.Out),
		})
	}
	for _, al := range t.aliases {
		if err := s.b.Alias(get32(al[0]), get32(al[1])); err != nil {
			return fmt.Errorf("synth: stamping %s: %w", inst.Path, err)
		}
	}
	for _, tr := range t.rams {
		rb := s.ramAt(inst.Path+tr.relPath, tr.mem, tr.width, tr.depth)
		for _, w := range tr.writes {
			rb.writes = append(rb.writes, ramWrite{clk: get32(w.clk), en: get32(w.en), addr: getIDs(w.addr), data: getIDs(w.data)})
		}
		for _, rp := range tr.reads {
			rb.reads = append(rb.reads, netlist.RAMReadPort{Addr: getIDs(rp.addr), Out: getIDs(rp.out)})
		}
	}
	s.deduped += t.dedupedDelta
	s.stamped += 1 + t.stampedDelta
	return nil
}
