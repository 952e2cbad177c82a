package synth

import (
	"fmt"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/netlist"
)

// expr lowers an expression to bit nets, LSB first, at width
// max(cw, self-determined width). st may be nil outside always blocks.
func (s *synthesizer) expr(inst *elab.Instance, env *elab.Env, st *procState, e hdl.Expr, cw int) ([]netlist.NetID, error) {
	nw, err := elab.Width(inst, env, st.vars(), e)
	if err != nil {
		return nil, err
	}
	w := nw
	if cw > w {
		w = cw
	}
	return s.exprAt(inst, env, st, e, w)
}

// exprAt lowers an expression at exactly width w (context width
// propagated per Verilog rules).
func (s *synthesizer) exprAt(inst *elab.Instance, env *elab.Env, st *procState, e hdl.Expr, w int) ([]netlist.NetID, error) {
	switch v := e.(type) {
	case *hdl.Number:
		if v.CareMask != 0 {
			return nil, fmt.Errorf("wildcard literal is only valid as a casez label")
		}
		return s.constBits(int64(v.Value), w), nil

	case *hdl.Ident:
		if val, ok := env.Lookup(v.Name); ok {
			return s.constBits(val, w), nil
		}
		if val, ok := st.vars()[v.Name]; ok {
			return s.constBits(val, w), nil
		}
		if inst.IsIntVar(v.Name) {
			return nil, fmt.Errorf("integer variable %q read outside a loop context", v.Name)
		}
		n, ok := inst.ResolveNet(v.Name, env)
		if !ok {
			return nil, fmt.Errorf("undeclared signal %q", v.Name)
		}
		return s.extend(s.readSignal(inst, st, n), w), nil

	case *hdl.Unary:
		return s.unary(inst, env, st, v, w)

	case *hdl.Binary:
		return s.binary(inst, env, st, v, w)

	case *hdl.Ternary:
		c, err := s.condBit(inst, env, st, v.Cond)
		if err != nil {
			return nil, err
		}
		t, err := s.exprAt(inst, env, st, v.Then, w)
		if err != nil {
			return nil, err
		}
		f, err := s.exprAt(inst, env, st, v.Else, w)
		if err != nil {
			return nil, err
		}
		out := s.idSlice(w)
		for i := 0; i < w; i++ {
			out[i] = s.b.Mux(c, f[i], t[i])
		}
		return out, nil

	case *hdl.Index:
		bits, err := s.indexRead(inst, env, st, v)
		if err != nil {
			return nil, err
		}
		return s.extend(bits, w), nil

	case *hdl.PartSelect:
		base, ok := v.Base.(*hdl.Ident)
		if !ok {
			return nil, fmt.Errorf("unsupported nested part select")
		}
		n, ok := inst.ResolveNet(base.Name, env)
		if !ok {
			return nil, fmt.Errorf("undeclared signal %q", base.Name)
		}
		scope := env.WithVars(st.vars())
		msb, err := elab.Eval(v.MSB, scope)
		if err != nil {
			return nil, err
		}
		lsb, err := elab.Eval(v.LSB, scope)
		if err != nil {
			return nil, err
		}
		lo, hi, err := elab.PartRange(n, base.Name, msb, lsb)
		if err != nil {
			return nil, err
		}
		bits := s.readSignal(inst, st, n)[lo : hi+1]
		return s.extend(bits, w), nil

	case *hdl.Concat:
		var bits []netlist.NetID
		for i := len(v.Parts) - 1; i >= 0; i-- {
			pw, err := elab.Width(inst, env, st.vars(), v.Parts[i])
			if err != nil {
				return nil, err
			}
			pb, err := s.exprAt(inst, env, st, v.Parts[i], pw)
			if err != nil {
				return nil, err
			}
			bits = append(bits, pb...)
		}
		return s.extend(bits, w), nil

	case *hdl.Repl:
		cnt, err := elab.ReplCount(v, env.WithVars(st.vars()))
		if err != nil {
			return nil, err
		}
		xw, err := elab.Width(inst, env, st.vars(), v.X)
		if err != nil {
			return nil, err
		}
		xb, err := s.exprAt(inst, env, st, v.X, xw)
		if err != nil {
			return nil, err
		}
		var bits []netlist.NetID
		for i := int64(0); i < cnt; i++ {
			bits = append(bits, xb...)
		}
		return s.extend(bits, w), nil
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

// readSignal returns the current value bits of a declared net: the
// procedural state's view inside an always block (blocking updates
// visible), or the declared nets.
func (s *synthesizer) readSignal(inst *elab.Instance, st *procState, n *elab.Net) []netlist.NetID {
	if st != nil {
		if bits, ok := st.readVals(n.Name); ok {
			return bits
		}
	}
	return s.netBits(inst, n.Name)
}

// indexRead lowers base[idx]: a bit select on a vector (constant or
// variable index) or a memory word read (new RAM read port).
func (s *synthesizer) indexRead(inst *elab.Instance, env *elab.Env, st *procState, v *hdl.Index) ([]netlist.NetID, error) {
	base, ok := v.Base.(*hdl.Ident)
	if !ok {
		return nil, fmt.Errorf("unsupported nested index")
	}
	// Memory word read?
	if m, ok := inst.ResolveMem(base.Name, env); ok {
		aw := addrWidth(m.Depth)
		addr, err := s.expr(inst, env, st, v.Idx, aw)
		if err != nil {
			return nil, err
		}
		addr = addr[:aw]
		if m.MinIdx != 0 {
			addr = s.subConst(addr, m.MinIdx)
		}
		rb := s.ramFor(inst.Path, m)
		// RAM read data is preferred as alias representative, like a
		// declared signal.
		out := s.idSlice(m.Width)
		for i := range out {
			out[i] = s.b.NewNet(true)
		}
		rb.reads = append(rb.reads, netlist.RAMReadPort{Addr: addr, Out: out})
		return out, nil
	}
	n, ok := inst.ResolveNet(base.Name, env)
	if !ok {
		return nil, fmt.Errorf("undeclared signal %q", base.Name)
	}
	bits := s.readSignal(inst, st, n)
	// Constant index: direct bit pick.
	if idx, err := elab.Eval(v.Idx, env.WithVars(st.vars())); err == nil {
		bit, err := elab.BitOffset(n, base.Name, idx)
		if err != nil {
			return nil, err
		}
		return bits[bit : bit+1], nil
	}
	// Variable index: mux tree over all bits.
	iw, err := elab.Width(inst, env, st.vars(), v.Idx)
	if err != nil {
		return nil, err
	}
	idxBits, err := s.exprAt(inst, env, st, v.Idx, iw)
	if err != nil {
		return nil, err
	}
	if n.LSB != 0 {
		idxBits = s.subConst(idxBits, n.LSB)
	}
	return []netlist.NetID{s.muxTreeSelect(bits, idxBits)}, nil
}

// condBit reduces an expression to a single condition bit (reduce-OR
// of its bits, per Verilog truthiness).
func (s *synthesizer) condBit(inst *elab.Instance, env *elab.Env, st *procState, e hdl.Expr) (netlist.NetID, error) {
	nw, err := elab.Width(inst, env, st.vars(), e)
	if err != nil {
		return netlist.Nil, err
	}
	bits, err := s.exprAt(inst, env, st, e, nw)
	if err != nil {
		return netlist.Nil, err
	}
	return s.reduceOr(bits), nil
}

// extend zero-extends or truncates bits to width w.
func (s *synthesizer) extend(bits []netlist.NetID, w int) []netlist.NetID {
	if len(bits) == w {
		return bits
	}
	if len(bits) > w {
		return bits[:w]
	}
	out := s.idSlice(w)
	copy(out, bits)
	for i := len(bits); i < w; i++ {
		out[i] = s.b.Const0()
	}
	return out
}

func (s *synthesizer) unary(inst *elab.Instance, env *elab.Env, st *procState, v *hdl.Unary, w int) ([]netlist.NetID, error) {
	switch v.Op {
	case hdl.OpNot:
		x, err := s.exprAt(inst, env, st, v.X, w)
		if err != nil {
			return nil, err
		}
		out := s.idSlice(w)
		for i := range out {
			out[i] = s.b.Not(x[i])
		}
		return out, nil
	case hdl.OpNeg:
		x, err := s.exprAt(inst, env, st, v.X, w)
		if err != nil {
			return nil, err
		}
		return s.negVec(x), nil
	case hdl.OpLogNot:
		c, err := s.condBit(inst, env, st, v.X)
		if err != nil {
			return nil, err
		}
		return s.extend([]netlist.NetID{s.b.Not(c)}, w), nil
	}
	// Reductions.
	nw, err := elab.Width(inst, env, st.vars(), v.X)
	if err != nil {
		return nil, err
	}
	x, err := s.exprAt(inst, env, st, v.X, nw)
	if err != nil {
		return nil, err
	}
	var bit netlist.NetID
	switch v.Op {
	case hdl.OpRedAnd:
		bit = s.reduceAnd(x)
	case hdl.OpRedOr:
		bit = s.reduceOr(x)
	case hdl.OpRedXor:
		bit = s.reduceXor(x)
	case hdl.OpRedNand:
		bit = s.b.Not(s.reduceAnd(x))
	case hdl.OpRedNor:
		bit = s.b.Not(s.reduceOr(x))
	case hdl.OpRedXnor:
		bit = s.b.Not(s.reduceXor(x))
	default:
		return nil, fmt.Errorf("unsupported unary operator")
	}
	return s.extend([]netlist.NetID{bit}, w), nil
}

func (s *synthesizer) binary(inst *elab.Instance, env *elab.Env, st *procState, v *hdl.Binary, w int) ([]netlist.NetID, error) {
	bitwise := func(f func(a, b netlist.NetID) netlist.NetID) ([]netlist.NetID, error) {
		l, err := s.exprAt(inst, env, st, v.L, w)
		if err != nil {
			return nil, err
		}
		r, err := s.exprAt(inst, env, st, v.R, w)
		if err != nil {
			return nil, err
		}
		out := s.idSlice(w)
		for i := 0; i < w; i++ {
			out[i] = f(l[i], r[i])
		}
		return out, nil
	}
	// Operand width for comparisons: max of the natural widths.
	cmpOperands := func() ([]netlist.NetID, []netlist.NetID, error) {
		lw, err := elab.Width(inst, env, st.vars(), v.L)
		if err != nil {
			return nil, nil, err
		}
		rw, err := elab.Width(inst, env, st.vars(), v.R)
		if err != nil {
			return nil, nil, err
		}
		ow := lw
		if rw > ow {
			ow = rw
		}
		l, err := s.exprAt(inst, env, st, v.L, ow)
		if err != nil {
			return nil, nil, err
		}
		r, err := s.exprAt(inst, env, st, v.R, ow)
		if err != nil {
			return nil, nil, err
		}
		return l, r, nil
	}

	switch v.Op {
	case hdl.OpAnd:
		return bitwise(s.b.And)
	case hdl.OpOr:
		return bitwise(s.b.Or)
	case hdl.OpXor:
		return bitwise(s.b.Xor)
	case hdl.OpXnor:
		return bitwise(s.b.Xnor)

	case hdl.OpAdd:
		l, err := s.exprAt(inst, env, st, v.L, w)
		if err != nil {
			return nil, err
		}
		r, err := s.exprAt(inst, env, st, v.R, w)
		if err != nil {
			return nil, err
		}
		sum, _ := s.addVec(l, r, s.b.Const0())
		return sum, nil
	case hdl.OpSub:
		l, err := s.exprAt(inst, env, st, v.L, w)
		if err != nil {
			return nil, err
		}
		r, err := s.exprAt(inst, env, st, v.R, w)
		if err != nil {
			return nil, err
		}
		return s.subVec(l, r), nil
	case hdl.OpMul:
		l, err := s.exprAt(inst, env, st, v.L, w)
		if err != nil {
			return nil, err
		}
		r, err := s.exprAt(inst, env, st, v.R, w)
		if err != nil {
			return nil, err
		}
		return s.mulVec(l, r), nil
	case hdl.OpDiv, hdl.OpMod:
		// Only constant power-of-two divisors are synthesizable here.
		d, err := elab.Eval(v.R, env.WithVars(st.vars()))
		if err != nil {
			return nil, fmt.Errorf("division/modulo requires a constant divisor: %v", err)
		}
		if d <= 0 || d&(d-1) != 0 {
			return nil, fmt.Errorf("division/modulo only supported by positive powers of two, got %d", d)
		}
		sh := 0
		for (int64(1) << uint(sh)) != d {
			sh++
		}
		l, err := s.exprAt(inst, env, st, v.L, w)
		if err != nil {
			return nil, err
		}
		if v.Op == hdl.OpDiv {
			return s.shrConst(l, sh), nil
		}
		out := s.idSlice(w)
		for i := 0; i < w; i++ {
			if i < sh {
				out[i] = l[i]
			} else {
				out[i] = s.b.Const0()
			}
		}
		return out, nil

	case hdl.OpShl, hdl.OpShr:
		l, err := s.exprAt(inst, env, st, v.L, w)
		if err != nil {
			return nil, err
		}
		if amt, err := elab.Eval(v.R, env.WithVars(st.vars())); err == nil {
			if amt < 0 {
				return nil, fmt.Errorf("negative shift amount %d", amt)
			}
			if v.Op == hdl.OpShl {
				return s.shlConst(l, int(amt)), nil
			}
			return s.shrConst(l, int(amt)), nil
		}
		rw, err := elab.Width(inst, env, st.vars(), v.R)
		if err != nil {
			return nil, err
		}
		amtBits, err := s.exprAt(inst, env, st, v.R, rw)
		if err != nil {
			return nil, err
		}
		return s.shiftVar(l, amtBits, v.Op == hdl.OpShl), nil

	case hdl.OpEq, hdl.OpNeq:
		l, r, err := cmpOperands()
		if err != nil {
			return nil, err
		}
		eq := s.eqVec(l, r)
		if v.Op == hdl.OpNeq {
			eq = s.b.Not(eq)
		}
		return s.extend([]netlist.NetID{eq}, w), nil
	case hdl.OpLt, hdl.OpLe, hdl.OpGt, hdl.OpGe:
		l, r, err := cmpOperands()
		if err != nil {
			return nil, err
		}
		var bit netlist.NetID
		switch v.Op {
		case hdl.OpLt:
			bit = s.ltVec(l, r)
		case hdl.OpGe:
			bit = s.b.Not(s.ltVec(l, r))
		case hdl.OpGt:
			bit = s.ltVec(r, l)
		case hdl.OpLe:
			bit = s.b.Not(s.ltVec(r, l))
		}
		return s.extend([]netlist.NetID{bit}, w), nil

	case hdl.OpLogAnd, hdl.OpLogOr:
		lc, err := s.condBit(inst, env, st, v.L)
		if err != nil {
			return nil, err
		}
		rc, err := s.condBit(inst, env, st, v.R)
		if err != nil {
			return nil, err
		}
		var bit netlist.NetID
		if v.Op == hdl.OpLogAnd {
			bit = s.b.And(lc, rc)
		} else {
			bit = s.b.Or(lc, rc)
		}
		return s.extend([]netlist.NetID{bit}, w), nil
	}
	return nil, fmt.Errorf("unsupported binary operator")
}
