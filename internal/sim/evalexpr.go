package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/elab"
	"repro/internal/hdl"
)

// eval evaluates an expression at width max(cw, natural), masked to
// that width.
func (r *RTLSim) eval(inst *elab.Instance, env *elab.Env, st *execState, e hdl.Expr, cw int) (uint64, error) {
	nw, err := elab.Width(inst, env, st.vars(), e)
	if err != nil {
		return 0, err
	}
	w := nw
	if cw > w {
		w = cw
	}
	if w > 64 {
		return 0, fmt.Errorf("expression wider than 64 bits (%d)", w)
	}
	return r.evalAt(inst, env, st, e, w)
}

// readNet returns the current value of a net, honoring the block's
// blocking-assignment shadow.
func (r *RTLSim) readNet(inst *elab.Instance, st *execState, n *elab.Net) uint64 {
	key := r.netKey(inst, n.Name)
	if st != nil {
		if v, ok := st.shadow[key]; ok {
			return v & mask(n.Width)
		}
	}
	return r.vals[key] & mask(n.Width)
}

// bitOf resolves the index idx of net n, written name, to a bit
// offset. A constant index (loop variables included) must lie inside
// n, as synthesis requires. A variable one outside n gives ok false:
// with no X, such a read sees 0 and such a write is dropped.
func (r *RTLSim) bitOf(inst *elab.Instance, env *elab.Env, st *execState, idx hdl.Expr, name string, n *elab.Net) (bit int64, ok bool, err error) {
	if c, err := elab.Eval(idx, env.WithVars(st.vars())); err == nil {
		bit, err := elab.BitOffset(n, name, c)
		return bit, err == nil, err
	}
	v, err := r.eval(inst, env, st, idx, 64)
	if err != nil {
		return 0, false, err
	}
	bit = int64(v) - n.LSB
	return bit, bit >= 0 && bit < int64(n.Width), nil
}

func (r *RTLSim) evalAt(inst *elab.Instance, env *elab.Env, st *execState, e hdl.Expr, w int) (uint64, error) {
	m := mask(w)
	switch v := e.(type) {
	case *hdl.Number:
		return v.Value & m, nil

	case *hdl.Ident:
		if val, ok := env.Lookup(v.Name); ok {
			return uint64(val) & m, nil
		}
		if val, ok := st.vars()[v.Name]; ok {
			return uint64(val) & m, nil
		}
		n, ok := inst.ResolveNet(v.Name, env)
		if !ok {
			return 0, fmt.Errorf("undeclared signal %q", v.Name)
		}
		return r.readNet(inst, st, n) & m, nil

	case *hdl.Unary:
		switch v.Op {
		case hdl.OpNot:
			x, err := r.evalAt(inst, env, st, v.X, w)
			if err != nil {
				return 0, err
			}
			return ^x & m, nil
		case hdl.OpNeg:
			x, err := r.evalAt(inst, env, st, v.X, w)
			if err != nil {
				return 0, err
			}
			return (-x) & m, nil
		case hdl.OpLogNot:
			c, err := r.evalCond(inst, env, st, v.X)
			if err != nil {
				return 0, err
			}
			return b2u(!c) & m, nil
		}
		nw, err := elab.Width(inst, env, st.vars(), v.X)
		if err != nil {
			return 0, err
		}
		x, err := r.evalAt(inst, env, st, v.X, nw)
		if err != nil {
			return 0, err
		}
		full := x == mask(nw)
		any := x != 0
		par := uint64(bits.OnesCount64(x)) & 1
		switch v.Op {
		case hdl.OpRedAnd:
			return b2u(full) & m, nil
		case hdl.OpRedOr:
			return b2u(any) & m, nil
		case hdl.OpRedXor:
			return par & m, nil
		case hdl.OpRedNand:
			return b2u(!full) & m, nil
		case hdl.OpRedNor:
			return b2u(!any) & m, nil
		case hdl.OpRedXnor:
			return (par ^ 1) & m, nil
		}
		return 0, fmt.Errorf("unsupported unary operator")

	case *hdl.Binary:
		return r.evalBinary(inst, env, st, v, w)

	case *hdl.Ternary:
		c, err := r.evalCond(inst, env, st, v.Cond)
		if err != nil {
			return 0, err
		}
		if c {
			return r.evalAt(inst, env, st, v.Then, w)
		}
		return r.evalAt(inst, env, st, v.Else, w)

	case *hdl.Index:
		base, ok := v.Base.(*hdl.Ident)
		if !ok {
			return 0, fmt.Errorf("unsupported nested index")
		}
		if mem, ok := inst.ResolveMem(base.Name, env); ok {
			addr, err := r.eval(inst, env, st, v.Idx, 64)
			if err != nil {
				return 0, err
			}
			words := r.mems[r.netKey(inst, mem.Name)]
			a := addr - uint64(mem.MinIdx)
			if a >= uint64(len(words)) {
				return 0, nil
			}
			return words[a] & m, nil
		}
		n, ok := inst.ResolveNet(base.Name, env)
		if !ok {
			return 0, fmt.Errorf("undeclared signal %q", base.Name)
		}
		bit, ok, err := r.bitOf(inst, env, st, v.Idx, base.Name, n)
		if err != nil || !ok {
			return 0, err
		}
		return (r.readNet(inst, st, n) >> uint(bit)) & 1 & m, nil

	case *hdl.PartSelect:
		base, ok := v.Base.(*hdl.Ident)
		if !ok {
			return 0, fmt.Errorf("unsupported nested part select")
		}
		n, ok := inst.ResolveNet(base.Name, env)
		if !ok {
			return 0, fmt.Errorf("undeclared signal %q", base.Name)
		}
		scope := env.WithVars(st.vars())
		msb, err := elab.Eval(v.MSB, scope)
		if err != nil {
			return 0, err
		}
		lsb, err := elab.Eval(v.LSB, scope)
		if err != nil {
			return 0, err
		}
		lo, hi, err := elab.PartRange(n, base.Name, msb, lsb)
		if err != nil {
			return 0, err
		}
		val := r.readNet(inst, st, n) >> uint(lo)
		return val & mask(int(hi-lo+1)) & m, nil

	case *hdl.Concat:
		var out uint64
		shift := 0
		for i := len(v.Parts) - 1; i >= 0; i-- {
			pw, err := elab.Width(inst, env, st.vars(), v.Parts[i])
			if err != nil {
				return 0, err
			}
			pv, err := r.evalAt(inst, env, st, v.Parts[i], pw)
			if err != nil {
				return 0, err
			}
			if shift < 64 {
				out |= pv << uint(shift)
			}
			shift += pw
		}
		return out & m, nil

	case *hdl.Repl:
		cnt, err := elab.ReplCount(v, env.WithVars(st.vars()))
		if err != nil {
			return 0, err
		}
		xw, err := elab.Width(inst, env, st.vars(), v.X)
		if err != nil {
			return 0, err
		}
		xv, err := r.evalAt(inst, env, st, v.X, xw)
		if err != nil {
			return 0, err
		}
		var out uint64
		shift := 0
		for i := int64(0); i < cnt && shift < 64; i++ {
			out |= xv << uint(shift)
			shift += xw
		}
		return out & m, nil
	}
	return 0, fmt.Errorf("unsupported expression %T", e)
}

func (r *RTLSim) evalBinary(inst *elab.Instance, env *elab.Env, st *execState, v *hdl.Binary, w int) (uint64, error) {
	m := mask(w)
	both := func(ow int) (uint64, uint64, error) {
		l, err := r.evalAt(inst, env, st, v.L, ow)
		if err != nil {
			return 0, 0, err
		}
		rr, err := r.evalAt(inst, env, st, v.R, ow)
		return l, rr, err
	}
	switch v.Op {
	case hdl.OpAnd, hdl.OpOr, hdl.OpXor, hdl.OpXnor, hdl.OpAdd, hdl.OpSub, hdl.OpMul:
		l, rr, err := both(w)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case hdl.OpAnd:
			return l & rr & m, nil
		case hdl.OpOr:
			return (l | rr) & m, nil
		case hdl.OpXor:
			return (l ^ rr) & m, nil
		case hdl.OpXnor:
			return ^(l ^ rr) & m, nil
		case hdl.OpAdd:
			return (l + rr) & m, nil
		case hdl.OpSub:
			return (l - rr) & m, nil
		case hdl.OpMul:
			return (l * rr) & m, nil
		}
	case hdl.OpDiv, hdl.OpMod:
		d, err := elab.Eval(v.R, env.WithVars(st.vars()))
		if err != nil {
			return 0, fmt.Errorf("division/modulo requires a constant divisor: %v", err)
		}
		if d <= 0 || d&(d-1) != 0 {
			return 0, fmt.Errorf("division/modulo only supported by positive powers of two, got %d", d)
		}
		l, err := r.evalAt(inst, env, st, v.L, w)
		if err != nil {
			return 0, err
		}
		if v.Op == hdl.OpDiv {
			return (l / uint64(d)) & m, nil
		}
		return (l % uint64(d)) & m, nil
	case hdl.OpShl, hdl.OpShr:
		l, err := r.evalAt(inst, env, st, v.L, w)
		if err != nil {
			return 0, err
		}
		rw, err := elab.Width(inst, env, st.vars(), v.R)
		if err != nil {
			return 0, err
		}
		amt, err := r.evalAt(inst, env, st, v.R, rw)
		if err != nil {
			return 0, err
		}
		if amt >= 64 {
			return 0, nil
		}
		if v.Op == hdl.OpShl {
			return (l << amt) & m, nil
		}
		return (l >> amt) & m, nil
	case hdl.OpEq, hdl.OpNeq, hdl.OpLt, hdl.OpLe, hdl.OpGt, hdl.OpGe:
		lw, err := elab.Width(inst, env, st.vars(), v.L)
		if err != nil {
			return 0, err
		}
		rw, err := elab.Width(inst, env, st.vars(), v.R)
		if err != nil {
			return 0, err
		}
		ow := lw
		if rw > ow {
			ow = rw
		}
		l, rr, err := both(ow)
		if err != nil {
			return 0, err
		}
		var res bool
		switch v.Op {
		case hdl.OpEq:
			res = l == rr
		case hdl.OpNeq:
			res = l != rr
		case hdl.OpLt:
			res = l < rr
		case hdl.OpLe:
			res = l <= rr
		case hdl.OpGt:
			res = l > rr
		case hdl.OpGe:
			res = l >= rr
		}
		return b2u(res) & m, nil
	case hdl.OpLogAnd, hdl.OpLogOr:
		lc, err := r.evalCond(inst, env, st, v.L)
		if err != nil {
			return 0, err
		}
		rc, err := r.evalCond(inst, env, st, v.R)
		if err != nil {
			return 0, err
		}
		if v.Op == hdl.OpLogAnd {
			return b2u(lc && rc) & m, nil
		}
		return b2u(lc || rc) & m, nil
	}
	return 0, fmt.Errorf("unsupported binary operator")
}

func (r *RTLSim) evalCond(inst *elab.Instance, env *elab.Env, st *execState, e hdl.Expr) (bool, error) {
	nw, err := elab.Width(inst, env, st.vars(), e)
	if err != nil {
		return false, err
	}
	v, err := r.evalAt(inst, env, st, e, nw)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
