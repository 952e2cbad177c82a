package synth

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/netlist"
)

// Result bundles the synthesized netlists of one run: the raw netlist
// as lowered and the optimized netlist metrics are measured on. Under
// a LowerOptions.Workspace both netlists, with the optimized one's
// driver table and topological order, live in the workspace's memory:
// they are valid until the next run on that workspace, so a caller
// that keeps a Result longer reads what it needs first. A nil
// workspace gives fresh, independent netlists.
type Result struct {
	Raw       *netlist.Netlist
	Optimized *netlist.Netlist
	OptStats  netlist.OptimizeResult
	Top       *elab.Instance
	Report    *elab.Report
	// Deduped counts instances removed by the single-instance rule
	// (only non-zero when LowerOptions.DedupInstances was set).
	Deduped int
	// Stamped counts instances whose lowering was replayed from a
	// recorded template instead of being re-lowered expression by
	// expression (see LowerOptions.DisableTemplates).
	Stamped int
}

// Synthesize elaborates module top of the design with the given
// parameter overrides and lowers it to an optimized netlist.
func Synthesize(design *hdl.Design, top string, overrides map[string]int64) (*Result, error) {
	inst, report, err := elab.ElaborateOpts(design, top, overrides, elab.Options{})
	if err != nil {
		return nil, err
	}
	return SynthesizeInstance(inst, report, LowerOptions{})
}

// SynthesizeInstance lowers an already-elaborated instance tree to an
// optimized netlist. It lets callers that hold an elaboration (e.g.
// the accounting procedure's memoized parameter search) synthesize
// without paying for a second elaboration of the same design point.
func SynthesizeInstance(inst *elab.Instance, report *elab.Report, opts LowerOptions) (*Result, error) {
	opts.Workspace = opts.workspace()
	raw, ls, err := LowerOpts(inst, opts)
	if err != nil {
		return nil, err
	}
	opt, stats, err := netlist.OptimizeWS(raw, &opts.Workspace.NL)
	if err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, fmt.Errorf("synth: optimized netlist invalid: %w", err)
	}
	return &Result{Raw: raw, Optimized: opt, OptStats: stats, Top: inst, Report: report, Deduped: ls.Deduped, Stamped: ls.Stamped}, nil
}

// LowerOptions tunes the lowering.
type LowerOptions struct {
	// DedupInstances implements the single-instance rule of the
	// µComplexity accounting procedure at the structural level: when a
	// parent instantiates the same (module, parameters) more than
	// once, only the first instance is synthesized; the outputs of the
	// repeats alias to the representative's outputs and their
	// input-side glue logic is dropped.
	DedupInstances bool
	// DisableTemplates turns off template-stamped lowering: by default
	// the first instance of each (module, parameters, dedup flag,
	// port-binding pattern) the workspace lowers is recorded while it
	// lowers and every further instance, in this lowering or a later
	// one on the same workspace, is stamped from the recording with
	// renumbered nets (see template.go and Workspace). Stamping is
	// bit-identical to direct lowering — the switch exists for the
	// golden tests that prove it and for debugging.
	DisableTemplates bool
	// Workspace supplies reusable memory for the whole
	// lowering+optimization run; nil means a fresh one. The netlists a
	// run returns live in it until its next run (see Result). The
	// result is bit-identical for any workspace, fresh or reused. The
	// workspace must not be used concurrently.
	Workspace *Workspace
}

// workspace returns the options' workspace, or a fresh one when none
// is set: the one place a nil LowerOptions.Workspace gets its meaning.
func (o LowerOptions) workspace() *Workspace {
	if o.Workspace != nil {
		return o.Workspace
	}
	return NewWorkspace()
}

// LowerStats reports what the lowering did beyond the netlist itself.
type LowerStats struct {
	// Deduped counts instances removed by the single-instance rule.
	Deduped int
	// Stamped counts instances replayed from a lowering template.
	Stamped int
}

// LowerOpts converts an elaborated instance tree to a flattened raw
// netlist with the top instance's ports as primary I/O. It also
// reports how many duplicate instances the single-instance rule
// removed and how many were stamped from templates.
func LowerOpts(top *elab.Instance, opts LowerOptions) (*netlist.Netlist, LowerStats, error) {
	ws := opts.workspace()
	ws.startRun()
	if !opts.DisableTemplates {
		ws.adoptDesign(top)
	}
	s := &synthesizer{
		b:      netlist.NewBuilder(&ws.NL),
		ws:     ws,
		dedup:  opts.DedupInstances,
		noTmpl: opts.DisableTemplates,
	}
	// Allocate and register top-level ports. Port-bit names are part of
	// the hashed netlist identity (hand-rolled: fmt.Sprintf here was a
	// top allocation site).
	var buf []byte
	for _, p := range top.PortNets() {
		bits := s.netBits(top, p.Name)
		for i, nid := range bits {
			bitName := p.Name
			if p.Width > 1 {
				buf = append(buf[:0], p.Name...)
				buf = append(buf, '[')
				buf = strconv.AppendInt(buf, int64(i)+p.LSB, 10)
				buf = append(buf, ']')
				bitName = s.internName(buf)
			}
			switch p.Dir {
			case hdl.Input:
				s.b.AddInput(bitName, nid)
			case hdl.Output:
				s.b.AddOutput(bitName, nid)
			default:
				return nil, LowerStats{}, fmt.Errorf("synth: inout port %s.%s is not supported", top.Path, p.Name)
			}
		}
	}
	if err := s.instance(top); err != nil {
		return nil, LowerStats{}, err
	}
	if err := s.finalizeRAMs(); err != nil {
		return nil, LowerStats{}, err
	}
	nl, err := s.b.Build()
	return nl, LowerStats{Deduped: s.deduped, Stamped: s.stamped}, err
}

// ramKey identifies one memory by the instance path that owns it.
// Keying by path (instead of by *elab.Instance) lets template stamping
// register RAM sites for instances that were never directly lowered.
type ramKey struct {
	path string
	mem  string
}

// ramBuild accumulates the read/write sites of one memory during
// lowering.
type ramBuild struct {
	width  int
	depth  int64
	writes []ramWrite
	reads  []netlist.RAMReadPort
}

type ramWrite struct {
	clk  netlist.NetID
	en   netlist.NetID
	addr []netlist.NetID
	data []netlist.NetID
}

type synthesizer struct {
	b       *netlist.Builder
	ws      *Workspace
	dedup   bool
	noTmpl  bool
	deduped int
	stamped int
}

// internName returns buf's contents as a string, served from the
// workspace's intern table (the map lookup on a []byte key does not
// allocate; only a never-before-seen name does).
func (s *synthesizer) internName(buf []byte) string {
	if n, ok := s.ws.names[string(buf)]; ok {
		return n
	}
	n := string(buf)
	s.ws.names[n] = n
	return n
}

// idSlice returns an n-element NetID slice carved from the
// workspace's arena; it stays valid until the workspace's next Reset.
func (s *synthesizer) idSlice(n int) []netlist.NetID { return s.ws.arena.Take(n) }

// intSlice and tgtSlice are idSlice's analogues for procedural-LHS
// resolution scratch (bit position lists and target parts).
func (s *synthesizer) intSlice(n int) []int { return s.ws.ints.Take(n) }

func (s *synthesizer) tgtSlice(n int) []procTarget { return s.ws.tgts.Take(n) }

// netBits returns (allocating on first use) the bit nets of a declared
// net, LSB first.
func (s *synthesizer) netBits(inst *elab.Instance, name string) []netlist.NetID {
	k := sigRef{inst: inst, name: name}
	if bits, ok := s.ws.sigs[k]; ok {
		return bits
	}
	n := inst.Nets[name]
	if n == nil {
		panic(fmt.Sprintf("synth: internal: unknown net %s in %s", name, inst.Path))
	}
	// Declared signals are preferred as alias representatives.
	bits := s.idSlice(n.Width)
	for i := range bits {
		bits[i] = s.b.NewNet(true)
	}
	s.ws.sigs[k] = bits
	return bits
}

// ramFor returns (allocating on first use) the RAM build record of a
// memory of the instance at path.
func (s *synthesizer) ramFor(path string, mem *elab.Mem) *ramBuild {
	return s.ramAt(path, mem.Name, mem.Width, mem.Depth)
}

func (s *synthesizer) ramAt(path, name string, width int, depth int64) *ramBuild {
	k := ramKey{path: path, mem: name}
	rb, ok := s.ws.rams[k]
	if !ok {
		rb = &ramBuild{width: width, depth: depth}
		s.ws.rams[k] = rb
	}
	return rb
}

// instance lowers one elaborated instance and recurses into children.
func (s *synthesizer) instance(inst *elab.Instance) error {
	// Continuous assignments.
	for _, ea := range inst.Assigns {
		if err := s.contAssign(inst, ea); err != nil {
			return err
		}
	}
	// Always blocks.
	for _, ab := range inst.Alwayses {
		if err := s.alwaysBlock(inst, ab); err != nil {
			return err
		}
	}
	// Children: bind ports, recurse. Under the single-instance rule,
	// repeated (module, parameters) children reuse the representative's
	// synthesized logic. Otherwise the first child of each (signature,
	// port-binding pattern) is recorded as it lowers and later ones are
	// stamped from the recording (see template.go).
	var reps map[string]*elab.Child
	if s.dedup {
		reps = map[string]*elab.Child{}
	}
	for _, child := range inst.Children {
		var sig string
		if s.dedup || !s.noTmpl {
			sig = childSignature(child.Inst)
		}
		if s.dedup {
			if rep, seen := reps[sig]; seen {
				s.deduped++
				if err := s.bindDuplicate(inst, child, rep); err != nil {
					return err
				}
				continue
			}
			reps[sig] = child
		}
		if err := s.bindChild(inst, child); err != nil {
			return err
		}
		if !s.noTmpl {
			// The single-instance rule changes how a body lowers, so
			// the dedup flag is part of the key of a template that
			// outlives this lowering.
			mode := "\x00"
			if s.dedup {
				mode = "\x01"
			}
			key := sig + mode + s.portPattern(child.Inst)
			if t, seen := s.ws.tmpl[key]; seen {
				if t != nil {
					if err := s.stampChild(child, t); err != nil {
						return err
					}
					continue
				}
				// Known-unstampable shape: lower directly below.
			} else {
				f := s.beginRecord(child.Inst)
				err := s.instance(child.Inst)
				s.endRecord(f, key, err == nil)
				if err != nil {
					return err
				}
				continue
			}
		}
		if err := s.instance(child.Inst); err != nil {
			return err
		}
	}
	return nil
}

// childSignature keys instances by module and resolved parameters —
// the key the single-instance rule uses to decide that two instances
// are the same design point.
func childSignature(i *elab.Instance) string {
	return elab.ParamSignature(i.Module.Name, i.Params)
}

// bindDuplicate wires a repeated instance's output bindings to the
// representative instance's ports; its inputs (and their glue logic)
// are dropped along with the instance body.
func (s *synthesizer) bindDuplicate(inst *elab.Instance, child, rep *elab.Child) error {
	for _, b := range child.Ports {
		if b.Value == nil {
			continue
		}
		for _, port := range child.Inst.Module.Ports {
			if port.Name != b.Name || port.Dir != hdl.Output {
				continue
			}
			repBits := s.netBits(rep.Inst, port.Name)
			slots, err := s.lvalueSlots(inst, child.Env, b.Value)
			if err != nil {
				return fmt.Errorf("synth: %s: deduplicated port %s.%s: %w", b.Pos, child.Name, port.Name, err)
			}
			for i, slot := range slots {
				v := s.b.Const0()
				if i < len(repBits) {
					v = repBits[i]
				}
				if err := s.b.Alias(slot, v); err != nil {
					return fmt.Errorf("synth: %s: deduplicated port %s.%s: %w", b.Pos, child.Name, port.Name, err)
				}
			}
		}
	}
	return nil
}

// contAssign lowers "assign lhs = rhs".
func (s *synthesizer) contAssign(inst *elab.Instance, ea *elab.ElabAssign) error {
	slots, err := s.lvalueSlots(inst, ea.Env, ea.Item.LHS)
	if err != nil {
		return fmt.Errorf("synth: %s: %w", ea.Item.Pos, err)
	}
	rhs, err := s.expr(inst, ea.Env, nil, ea.Item.RHS, len(slots))
	if err != nil {
		return fmt.Errorf("synth: %s: %w", ea.Item.Pos, err)
	}
	for i, slot := range slots {
		v := s.b.Const0()
		if i < len(rhs) {
			v = rhs[i]
		}
		if err := s.b.Alias(slot, v); err != nil {
			return fmt.Errorf("synth: %s: conflicting drivers: %w", ea.Item.Pos, err)
		}
	}
	return nil
}

// bindChild connects a child instance's ports.
func (s *synthesizer) bindChild(inst *elab.Instance, child *elab.Child) error {
	bound := map[string]hdl.Binding{}
	for _, b := range child.Ports {
		bound[b.Name] = b
	}
	for _, port := range child.Inst.Module.Ports {
		childBits := s.netBits(child.Inst, port.Name)
		b, ok := bound[port.Name]
		if !ok || b.Value == nil {
			if port.Dir == hdl.Input {
				// Unconnected input: tie to 0.
				for _, cb := range childBits {
					if err := s.b.Alias(cb, s.b.Const0()); err != nil {
						return fmt.Errorf("synth: %s: tie-off of %s.%s: %w", child.Pos, child.Name, port.Name, err)
					}
				}
			}
			continue // unconnected output floats
		}
		switch port.Dir {
		case hdl.Input:
			vals, err := s.expr(inst, child.Env, nil, b.Value, len(childBits))
			if err != nil {
				return fmt.Errorf("synth: %s: port %s.%s: %w", b.Pos, child.Name, port.Name, err)
			}
			for i, cb := range childBits {
				v := s.b.Const0()
				if i < len(vals) {
					v = vals[i]
				}
				if err := s.b.Alias(cb, v); err != nil {
					return fmt.Errorf("synth: %s: port %s.%s: %w", b.Pos, child.Name, port.Name, err)
				}
			}
		case hdl.Output:
			slots, err := s.lvalueSlots(inst, child.Env, b.Value)
			if err != nil {
				return fmt.Errorf("synth: %s: output port %s.%s must connect to a simple signal: %w", b.Pos, child.Name, port.Name, err)
			}
			for i, slot := range slots {
				v := s.b.Const0()
				if i < len(childBits) {
					v = childBits[i]
				}
				if err := s.b.Alias(slot, v); err != nil {
					return fmt.Errorf("synth: %s: port %s.%s: %w", b.Pos, child.Name, port.Name, err)
				}
			}
		default:
			return fmt.Errorf("synth: %s: inout port %s.%s is not supported", b.Pos, child.Name, port.Name)
		}
	}
	return nil
}

// lvalueSlots resolves an assignable expression to its target bit
// nets, LSB first. Only static targets are allowed here; variable-index
// bit writes are handled separately inside always blocks.
func (s *synthesizer) lvalueSlots(inst *elab.Instance, env *elab.Env, e hdl.Expr) ([]netlist.NetID, error) {
	switch v := e.(type) {
	case *hdl.Ident:
		n, ok := inst.ResolveNet(v.Name, env)
		if !ok {
			return nil, undeclaredTarget(inst, env, v.Name)
		}
		return s.netBits(inst, n.Name), nil
	case *hdl.Index:
		base, ok := v.Base.(*hdl.Ident)
		if !ok {
			return nil, fmt.Errorf("unsupported nested index in lvalue")
		}
		n, ok := inst.ResolveNet(base.Name, env)
		if !ok {
			return nil, undeclaredTarget(inst, env, base.Name)
		}
		idx, err := elab.Eval(v.Idx, env)
		if err != nil {
			return nil, fmt.Errorf("bit index of %q must be constant here: %v", base.Name, err)
		}
		bit, err := elab.BitOffset(n, base.Name, idx)
		if err != nil {
			return nil, err
		}
		return s.netBits(inst, n.Name)[bit : bit+1], nil
	case *hdl.PartSelect:
		base, ok := v.Base.(*hdl.Ident)
		if !ok {
			return nil, fmt.Errorf("unsupported nested part select in lvalue")
		}
		n, ok := inst.ResolveNet(base.Name, env)
		if !ok {
			return nil, undeclaredTarget(inst, env, base.Name)
		}
		msb, err := elab.Eval(v.MSB, env)
		if err != nil {
			return nil, err
		}
		lsb, err := elab.Eval(v.LSB, env)
		if err != nil {
			return nil, err
		}
		lo, hi, err := elab.PartRange(n, base.Name, msb, lsb)
		if err != nil {
			return nil, err
		}
		return s.netBits(inst, n.Name)[lo : hi+1], nil
	case *hdl.Concat:
		// Verilog concat is MSB-first: the last part is the LSBs.
		var slots []netlist.NetID
		for i := len(v.Parts) - 1; i >= 0; i-- {
			sub, err := s.lvalueSlots(inst, env, v.Parts[i])
			if err != nil {
				return nil, err
			}
			slots = append(slots, sub...)
		}
		return slots, nil
	}
	return nil, fmt.Errorf("expression %s is not assignable", hdl.FormatExpr(e))
}

// undeclaredTarget is the error for a static assignment target that
// names no net: a memory, whose elements only always blocks can write,
// or nothing at all.
func undeclaredTarget(inst *elab.Instance, env *elab.Env, name string) error {
	if _, ok := inst.ResolveMem(name, env); ok {
		return fmt.Errorf("%q is a memory: a memory element cannot be a port or continuous-assignment target", name)
	}
	return fmt.Errorf("assignment to undeclared signal %q", name)
}

// finalizeRAMs converts accumulated memory read/write sites into RAM
// macros.
func (s *synthesizer) finalizeRAMs() error {
	// The accumulation tables are maps; emit macros in sorted
	// (instance path, memory name) order so the netlist's RAM order —
	// and with it every order-sensitive float accumulation downstream
	// (areas, leakage, dynamic power) — is identical on every run.
	// Every path starts with the top module's name, so the order does
	// not depend on it; the macros themselves carry no name.
	keys := s.ws.ramKeys[:0]
	for k := range s.ws.rams {
		keys = append(keys, k)
	}
	s.ws.ramKeys = keys
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].path != keys[j].path {
			return keys[i].path < keys[j].path
		}
		return keys[i].mem < keys[j].mem
	})
	for _, k := range keys {
		rb := s.ws.rams[k]
		if len(rb.writes) == 0 && len(rb.reads) == 0 {
			continue
		}
		r := &netlist.RAM{
			Width: rb.width,
			Depth: int(rb.depth),
			Clk:   netlist.Nil,
		}
		// One write port per write site, in program order; all
		// ports of one memory must share a clock.
		for _, w := range rb.writes {
			if r.Clk == netlist.Nil {
				r.Clk = w.clk
			} else if r.Clk != w.clk {
				return fmt.Errorf("synth: memory %s.%s written from two clock domains", k.path, k.mem)
			}
			r.WritePorts = append(r.WritePorts, netlist.RAMWritePort{En: w.en, Addr: w.addr, Data: w.data})
		}
		r.ReadPorts = rb.reads
		s.b.AddRAM(r)
	}
	return nil
}

// constBits returns the bit nets of a constant value at the given
// width (LSB first).
func (s *synthesizer) constBits(v int64, width int) []netlist.NetID {
	out := s.idSlice(width)
	for i := 0; i < width; i++ {
		out[i] = s.b.ConstBit((uint64(v)>>uint(i))&1 == 1)
	}
	return out
}

// addrWidth returns the address width of a memory of the given depth.
func addrWidth(depth int64) int {
	if depth <= 1 {
		return 1
	}
	return bits.Len64(uint64(depth - 1))
}

// pickClock chooses the clock from an edge-sensitive list: the first
// item whose name looks like a clock, else the first edge item.
func pickClock(sens []hdl.SensItem) (clock string, others []string) {
	cands := make([]string, 0, len(sens))
	for _, it := range sens {
		if it.Edge == hdl.EdgePos || it.Edge == hdl.EdgeNeg {
			cands = append(cands, it.Signal)
		}
	}
	if len(cands) == 0 {
		return "", nil
	}
	pick := 0
	for i, c := range cands {
		lower := strings.ToLower(c)
		if lower == "clk" || lower == "clock" || strings.HasSuffix(lower, "clk") || strings.HasSuffix(lower, "clock") {
			pick = i
			break
		}
	}
	clock = cands[pick]
	for i, c := range cands {
		if i != pick {
			others = append(others, c)
		}
	}
	return clock, others
}
