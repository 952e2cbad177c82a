package sim

import (
	"fmt"

	"repro/internal/elab"
	"repro/internal/hdl"
)

// RTLSim is a cycle-based interpreter over an elaborated µHDL design.
// Signals are limited to 64 bits (wider nets are rejected at
// construction). Semantics match internal/synth exactly — widths,
// selects and for loops come from the same internal/elab rules — so
// that gate-level equivalence checking is meaningful: all state
// initializes to zero, asynchronous resets are
// treated as synchronous, and all clocked blocks share one clock.
type RTLSim struct {
	top  *elab.Instance
	vals map[string]uint64   // inst.Path + "." + netName → value
	mems map[string][]uint64 // inst.Path + "." + memName → words

	// keys interns the joined "inst.Path.name" strings for every net
	// and memory, built once while walking the tree at construction.
	// Evaluation reads nets far more often than anything else, so
	// rebuilding the key by concatenation on every read used to be a
	// per-cycle allocation hot spot.
	keys map[*elab.Instance]map[string]string

	pendMask map[string]uint64 // per-net pending nonblocking write mask
	pendVal  map[string]uint64
	pendMems []memUpdate
}

// netKey returns the interned map key for a net or memory of an
// instance, falling back to concatenation for names outside the
// elaborated tables (which only happens on error paths).
func (r *RTLSim) netKey(inst *elab.Instance, name string) string {
	if k, ok := r.keys[inst][name]; ok {
		return k
	}
	return inst.Path + "." + name
}

type memUpdate struct {
	key  string
	addr uint64
	val  uint64
}

// NewRTLSim prepares an interpreter over an elaborated instance tree.
func NewRTLSim(top *elab.Instance) (*RTLSim, error) {
	r := &RTLSim{
		top:      top,
		vals:     map[string]uint64{},
		mems:     map[string][]uint64{},
		keys:     map[*elab.Instance]map[string]string{},
		pendMask: map[string]uint64{},
		pendVal:  map[string]uint64{},
	}
	var walk func(inst *elab.Instance) error
	walk = func(inst *elab.Instance) error {
		km := make(map[string]string, len(inst.Nets)+len(inst.Mems))
		r.keys[inst] = km
		for name, n := range inst.Nets {
			if n.Width > 64 {
				return fmt.Errorf("sim: net %s.%s is %d bits wide; the RTL interpreter supports at most 64", inst.Path, name, n.Width)
			}
			key := inst.Path + "." + name
			km[name] = key
			r.vals[key] = 0
		}
		for name, m := range inst.Mems {
			if m.Width > 64 {
				return fmt.Errorf("sim: memory %s.%s is %d bits wide; the RTL interpreter supports at most 64", inst.Path, name, m.Width)
			}
			key := inst.Path + "." + name
			km[name] = key
			r.mems[key] = make([]uint64, m.Depth)
		}
		for _, c := range inst.Children {
			if err := walk(c.Inst); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(top); err != nil {
		return nil, err
	}
	return r, nil
}

func mask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// SetInput drives a top-level input port.
func (r *RTLSim) SetInput(name string, val uint64) error {
	n, ok := r.top.Nets[name]
	if !ok || !n.IsPort || n.Dir != hdl.Input {
		return fmt.Errorf("sim: no input port %q on %s", name, r.top.Module.Name)
	}
	r.vals[r.netKey(r.top, name)] = val & mask(n.Width)
	return nil
}

// Output reads a top-level output port.
func (r *RTLSim) Output(name string) (uint64, error) {
	n, ok := r.top.Nets[name]
	if !ok || !n.IsPort || n.Dir != hdl.Output {
		return 0, fmt.Errorf("sim: no output port %q on %s", name, r.top.Module.Name)
	}
	return r.vals[r.netKey(r.top, name)] & mask(n.Width), nil
}

// Eval settles all combinational logic (continuous assignments,
// combinational always blocks, and port connections) to a fixpoint.
func (r *RTLSim) Eval() error {
	for iter := 0; iter < 1000; iter++ {
		changed, err := r.sweep(r.top)
		if err != nil {
			return err
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("sim: combinational logic did not settle (cycle?)")
}

// Step advances one clock cycle: settle, run every clocked block
// sampling pre-edge values, apply nonblocking updates and memory
// writes simultaneously, settle again.
func (r *RTLSim) Step() error {
	if err := r.Eval(); err != nil {
		return err
	}
	if err := r.clockedSweep(r.top); err != nil {
		return err
	}
	for key, m := range r.pendMask {
		cur := r.vals[key]
		r.vals[key] = (cur &^ m) | (r.pendVal[key] & m)
	}
	r.pendMask = map[string]uint64{}
	r.pendVal = map[string]uint64{}
	for _, u := range r.pendMems {
		words := r.mems[u.key]
		if u.addr < uint64(len(words)) {
			words[u.addr] = u.val
		}
	}
	r.pendMems = nil
	return r.Eval()
}

// sweep runs one pass of combinational updates over the whole tree and
// reports whether anything changed.
func (r *RTLSim) sweep(inst *elab.Instance) (bool, error) {
	changed := false
	write := func(key string, width int, v uint64) {
		v &= mask(width)
		if r.vals[key] != v {
			r.vals[key] = v
			changed = true
		}
	}

	for _, ea := range inst.Assigns {
		slots, err := r.lvalueSlots(inst, ea.Env, ea.Item.LHS, nil)
		if err != nil {
			return false, fmt.Errorf("sim: %s: %w", ea.Item.Pos, err)
		}
		v, err := r.eval(inst, ea.Env, nil, ea.Item.RHS, slots.width)
		if err != nil {
			return false, fmt.Errorf("sim: %s: %w", ea.Item.Pos, err)
		}
		if r.storeSlots(inst, slots, v, write) {
			changed = true
		}
	}

	for _, ab := range inst.Alwayses {
		if isClocked(ab.Item) {
			continue
		}
		st := &execState{shadow: map[string]uint64{}, intvars: map[string]int64{}, blocking: true}
		if err := r.exec(inst, ab.Env, st, ab.Item.Body); err != nil {
			return false, fmt.Errorf("sim: %s: %w", ab.Item.Pos, err)
		}
		for key, v := range st.commitVals {
			n := st.commitWidths[key]
			write(key, n, v)
		}
	}

	for _, c := range inst.Children {
		// Input port propagation (parent → child).
		boundPorts := map[string]hdl.Binding{}
		for _, b := range c.Ports {
			boundPorts[b.Name] = b
		}
		for _, p := range c.Inst.Module.Ports {
			pn := c.Inst.Nets[p.Name]
			key := r.netKey(c.Inst, p.Name)
			b, ok := boundPorts[p.Name]
			switch p.Dir {
			case hdl.Input:
				var v uint64
				if ok && b.Value != nil {
					var err error
					v, err = r.eval(inst, c.Env, nil, b.Value, pn.Width)
					if err != nil {
						return false, fmt.Errorf("sim: %s: port %s: %w", c.Pos, p.Name, err)
					}
				}
				write(key, pn.Width, v)
			}
		}
		sub, err := r.sweep(c.Inst)
		if err != nil {
			return false, err
		}
		changed = changed || sub
		// Output port propagation (child → parent).
		for _, p := range c.Inst.Module.Ports {
			if p.Dir != hdl.Output {
				continue
			}
			b, ok := boundPorts[p.Name]
			if !ok || b.Value == nil {
				continue
			}
			pn := c.Inst.Nets[p.Name]
			v := r.vals[r.netKey(c.Inst, p.Name)] & mask(pn.Width)
			slots, err := r.lvalueSlots(inst, c.Env, b.Value, nil)
			if err != nil {
				return false, fmt.Errorf("sim: %s: output port %s: %w", c.Pos, p.Name, err)
			}
			if r.storeSlots(inst, slots, v, write) {
				changed = true
			}
		}
	}
	return changed, nil
}

// clockedSweep executes every clocked always block, accumulating
// pending updates.
func (r *RTLSim) clockedSweep(inst *elab.Instance) error {
	for _, ab := range inst.Alwayses {
		if !isClocked(ab.Item) {
			continue
		}
		st := &execState{shadow: map[string]uint64{}, intvars: map[string]int64{}, blocking: false}
		if err := r.exec(inst, ab.Env, st, ab.Item.Body); err != nil {
			return fmt.Errorf("sim: %s: %w", ab.Item.Pos, err)
		}
		// Commit both blocking shadows and nonblocking pendings at the
		// edge.
		for key, m := range st.pendMask {
			r.pendMask[key] |= m
			r.pendVal[key] = (r.pendVal[key] &^ m) | (st.pendVal[key] & m)
		}
		r.pendMems = append(r.pendMems, st.pendMems...)
	}
	for _, c := range inst.Children {
		if err := r.clockedSweep(c.Inst); err != nil {
			return err
		}
	}
	return nil
}

func isClocked(ab *hdl.AlwaysBlock) bool {
	for _, s := range ab.Sens {
		if s.Edge == hdl.EdgePos || s.Edge == hdl.EdgeNeg {
			return true
		}
	}
	return false
}

// execState carries the interpretation state of one always block.
type execState struct {
	blocking bool // combinational block: blocking writes commit at end

	shadow       map[string]uint64 // blocking-updated view for reads
	commitVals   map[string]uint64 // comb block: final values
	commitWidths map[string]int

	pendMask map[string]uint64 // clocked block: nonblocking pendings
	pendVal  map[string]uint64
	pendMems []memUpdate

	intvars map[string]int64
}

// vars returns the block's integer loop variables; nil outside an
// always block (st == nil).
func (st *execState) vars() map[string]int64 {
	if st == nil {
		return nil
	}
	return st.intvars
}

func (st *execState) ensure() {
	if st.commitVals == nil {
		st.commitVals = map[string]uint64{}
		st.commitWidths = map[string]int{}
	}
	if st.pendMask == nil {
		st.pendMask = map[string]uint64{}
		st.pendVal = map[string]uint64{}
	}
}

// exec interprets a statement.
func (r *RTLSim) exec(inst *elab.Instance, env *elab.Env, st *execState, stmt hdl.Stmt) error {
	st.ensure()
	switch v := stmt.(type) {
	case *hdl.Block:
		for _, sub := range v.Stmts {
			if err := r.exec(inst, env, st, sub); err != nil {
				return err
			}
		}
		return nil

	case *hdl.Assign:
		return r.execAssign(inst, env, st, v)

	case *hdl.If:
		c, err := r.evalCond(inst, env, st, v.Cond)
		if err != nil {
			return err
		}
		if c {
			return r.exec(inst, env, st, v.Then)
		}
		if v.Else != nil {
			return r.exec(inst, env, st, v.Else)
		}
		return nil

	case *hdl.Case:
		sw, err := elab.Width(inst, env, st.vars(), v.Subject)
		if err != nil {
			return err
		}
		subj, err := r.eval(inst, env, st, v.Subject, sw)
		if err != nil {
			return err
		}
		var defaultBody hdl.Stmt
		for _, item := range v.Items {
			if item.Exprs == nil {
				defaultBody = item.Body
				continue
			}
			for _, le := range item.Exprs {
				if num, ok := le.(*hdl.Number); ok && num.CareMask != 0 {
					if !v.IsCasez {
						return fmt.Errorf("%s: wildcard label requires casez", item.Pos)
					}
					m := num.CareMask & mask(sw)
					if subj&m == num.Value&m {
						return r.exec(inst, env, st, item.Body)
					}
					continue
				}
				lv, err := r.eval(inst, env, st, le, sw)
				if err != nil {
					return err
				}
				if lv == subj {
					return r.exec(inst, env, st, item.Body)
				}
			}
		}
		if defaultBody != nil {
			return r.exec(inst, env, st, defaultBody)
		}
		return nil

	case *hdl.For:
		return elab.RunFor(inst, env, st.intvars, v, func() error {
			return r.exec(inst, env, st, v.Body)
		})
	}
	return fmt.Errorf("unsupported statement %T", stmt)
}

func (r *RTLSim) execAssign(inst *elab.Instance, env *elab.Env, st *execState, v *hdl.Assign) error {
	if ident, ok := v.LHS.(*hdl.Ident); ok && inst.IsIntVar(ident.Name) {
		val, err := elab.Eval(v.RHS, env.WithVars(st.intvars))
		if err != nil {
			return fmt.Errorf("%s: integer %q: %v", v.Pos, ident.Name, err)
		}
		st.intvars[ident.Name] = val
		return nil
	}
	// Memory write.
	if idx, ok := v.LHS.(*hdl.Index); ok {
		if base, ok := idx.Base.(*hdl.Ident); ok {
			if m, found := inst.ResolveMem(base.Name, env); found {
				if v.Blocking || st.blocking {
					return fmt.Errorf("%s: memory writes must be nonblocking in a clocked block", v.Pos)
				}
				aw := 64
				addr, err := r.eval(inst, env, st, idx.Idx, aw)
				if err != nil {
					return err
				}
				data, err := r.eval(inst, env, st, v.RHS, m.Width)
				if err != nil {
					return err
				}
				st.pendMems = append(st.pendMems, memUpdate{
					key:  r.netKey(inst, m.Name),
					addr: addr - uint64(m.MinIdx),
					val:  data & mask(m.Width),
				})
				return nil
			}
		}
	}
	slots, err := r.lvalueSlots(inst, env, v.LHS, st)
	if err != nil {
		return fmt.Errorf("%s: %v", v.Pos, err)
	}
	val, err := r.eval(inst, env, st, v.RHS, slots.width)
	if err != nil {
		return fmt.Errorf("%s: %v", v.Pos, err)
	}
	// Blocking assignments update the shadow for subsequent reads.
	// In a comb block they also commit; in a clocked block both kinds
	// land in the pending set applied at the edge.
	commit := func(key string, width int, newVal uint64, m uint64) {
		if v.Blocking {
			cur, ok := st.shadow[key]
			if !ok {
				cur = r.vals[key]
			}
			st.shadow[key] = (cur &^ m) | (newVal & m)
		}
		if st.blocking {
			curC, ok := st.commitVals[key]
			if !ok {
				curC = r.vals[key]
			}
			st.commitVals[key] = (curC &^ m) | (newVal & m)
			st.commitWidths[key] = width
		} else {
			st.pendMask[key] |= m
			st.pendVal[key] = (st.pendVal[key] &^ m) | (newVal & m)
		}
	}
	bitPos := 0
	for _, part := range slots.parts {
		key := part.key
		var m, nv uint64
		for _, bit := range part.bits {
			m |= 1 << uint(bit)
			if (val>>uint(bitPos))&1 == 1 {
				nv |= 1 << uint(bit)
			}
			bitPos++
		}
		commit(key, part.declWidth, nv, m)
	}
	return nil
}

// slotPart is a run of destination bits within one signal.
type slotPart struct {
	key       string
	declWidth int
	bits      []int
}

type slotSet struct {
	parts []slotPart
	width int
}

// lvalueSlots resolves an assignable expression to concrete bit
// positions. In the interpreter even variable indices are concrete.
func (r *RTLSim) lvalueSlots(inst *elab.Instance, env *elab.Env, e hdl.Expr, st *execState) (slotSet, error) {
	switch v := e.(type) {
	case *hdl.Ident:
		n, ok := inst.ResolveNet(v.Name, env)
		if !ok {
			return slotSet{}, fmt.Errorf("assignment to undeclared signal %q", v.Name)
		}
		bits := make([]int, n.Width)
		for i := range bits {
			bits[i] = i
		}
		return slotSet{parts: []slotPart{{key: r.netKey(inst, n.Name), declWidth: n.Width, bits: bits}}, width: n.Width}, nil
	case *hdl.Index:
		base, ok := v.Base.(*hdl.Ident)
		if !ok {
			return slotSet{}, fmt.Errorf("unsupported nested index in lvalue")
		}
		n, ok := inst.ResolveNet(base.Name, env)
		if !ok {
			return slotSet{}, fmt.Errorf("assignment to undeclared signal %q", base.Name)
		}
		bit, ok, err := r.bitOf(inst, env, st, v.Idx, base.Name, n)
		if err != nil {
			return slotSet{}, err
		}
		if !ok {
			return slotSet{width: 1}, nil
		}
		return slotSet{parts: []slotPart{{key: r.netKey(inst, n.Name), declWidth: n.Width, bits: []int{int(bit)}}}, width: 1}, nil
	case *hdl.PartSelect:
		base, ok := v.Base.(*hdl.Ident)
		if !ok {
			return slotSet{}, fmt.Errorf("unsupported nested part select in lvalue")
		}
		n, ok := inst.ResolveNet(base.Name, env)
		if !ok {
			return slotSet{}, fmt.Errorf("assignment to undeclared signal %q", base.Name)
		}
		scope := env.WithVars(st.vars())
		msb, err := elab.Eval(v.MSB, scope)
		if err != nil {
			return slotSet{}, err
		}
		lsb, err := elab.Eval(v.LSB, scope)
		if err != nil {
			return slotSet{}, err
		}
		lo, hi, err := elab.PartRange(n, base.Name, msb, lsb)
		if err != nil {
			return slotSet{}, err
		}
		bits := make([]int, 0, hi-lo+1)
		for i := lo; i <= hi; i++ {
			bits = append(bits, int(i))
		}
		return slotSet{parts: []slotPart{{key: r.netKey(inst, n.Name), declWidth: n.Width, bits: bits}}, width: len(bits)}, nil
	case *hdl.Concat:
		var out slotSet
		for i := len(v.Parts) - 1; i >= 0; i-- {
			sub, err := r.lvalueSlots(inst, env, v.Parts[i], st)
			if err != nil {
				return slotSet{}, err
			}
			out.parts = append(out.parts, sub.parts...)
			out.width += sub.width
		}
		return out, nil
	}
	return slotSet{}, fmt.Errorf("expression %s is not assignable", hdl.FormatExpr(e))
}

// storeSlots writes a value through resolved slots using the supplied
// write function; returns whether anything changed (the write function
// tracks that itself, so this just performs the writes).
func (r *RTLSim) storeSlots(inst *elab.Instance, slots slotSet, val uint64, write func(key string, width int, v uint64)) bool {
	bitPos := 0
	for _, part := range slots.parts {
		cur := r.vals[part.key]
		nv := cur
		for _, bit := range part.bits {
			b := (val >> uint(bitPos)) & 1
			bitPos++
			if b == 1 {
				nv |= 1 << uint(bit)
			} else {
				nv &^= 1 << uint(bit)
			}
		}
		write(part.key, part.declWidth, nv)
	}
	return false
}
