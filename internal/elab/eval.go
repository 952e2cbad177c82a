package elab

import (
	"fmt"

	"repro/internal/hdl"
)

// ErrNotConstant reports that an expression required at elaboration
// time references a signal.
type ErrNotConstant struct {
	Name string
	Pos  hdl.Pos
}

func (e *ErrNotConstant) Error() string {
	return fmt.Sprintf("%s: %q is not an elaboration-time constant", e.Pos, e.Name)
}

// Eval evaluates a constant expression in env. Arithmetic follows the
// host int64 semantics (µHDL constant expressions are parameter
// arithmetic: widths, counts, bounds), with division/modulo by zero and
// negative shift counts rejected.
func Eval(e hdl.Expr, env *Env) (int64, error) {
	switch v := e.(type) {
	case *hdl.Number:
		if v.CareMask != 0 {
			return 0, fmt.Errorf("%s: wildcard literal is only valid as a casez label", v.Pos)
		}
		return int64(v.Value), nil
	case *hdl.Ident:
		if val, ok := env.Lookup(v.Name); ok {
			return val, nil
		}
		return 0, &ErrNotConstant{Name: v.Name, Pos: v.Pos}
	case *hdl.Unary:
		x, err := Eval(v.X, env)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case hdl.OpNot:
			return ^x, nil
		case hdl.OpLogNot:
			return b2i(x == 0), nil
		case hdl.OpNeg:
			return -x, nil
		case hdl.OpRedOr, hdl.OpRedXor:
			// On constants, reductions are rarely used; define them over
			// the 64-bit value.
			if v.Op == hdl.OpRedOr {
				return b2i(x != 0), nil
			}
			var p int64
			for u := uint64(x); u != 0; u &= u - 1 {
				p ^= 1
			}
			return p, nil
		default:
			return 0, fmt.Errorf("%s: reduction operator not supported in constant expression", v.Pos)
		}
	case *hdl.Binary:
		l, err := Eval(v.L, env)
		if err != nil {
			return 0, err
		}
		r, err := Eval(v.R, env)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case hdl.OpAdd:
			return l + r, nil
		case hdl.OpSub:
			return l - r, nil
		case hdl.OpMul:
			return l * r, nil
		case hdl.OpDiv:
			if r == 0 {
				return 0, fmt.Errorf("%s: constant division by zero", v.Pos)
			}
			return l / r, nil
		case hdl.OpMod:
			if r == 0 {
				return 0, fmt.Errorf("%s: constant modulo by zero", v.Pos)
			}
			return l % r, nil
		case hdl.OpAnd:
			return l & r, nil
		case hdl.OpOr:
			return l | r, nil
		case hdl.OpXor:
			return l ^ r, nil
		case hdl.OpXnor:
			return ^(l ^ r), nil
		case hdl.OpLogAnd:
			return b2i(l != 0 && r != 0), nil
		case hdl.OpLogOr:
			return b2i(l != 0 || r != 0), nil
		case hdl.OpEq:
			return b2i(l == r), nil
		case hdl.OpNeq:
			return b2i(l != r), nil
		case hdl.OpLt:
			return b2i(l < r), nil
		case hdl.OpLe:
			return b2i(l <= r), nil
		case hdl.OpGt:
			return b2i(l > r), nil
		case hdl.OpGe:
			return b2i(l >= r), nil
		case hdl.OpShl:
			if r < 0 || r > 63 {
				return 0, fmt.Errorf("%s: constant shift amount %d out of range", v.Pos, r)
			}
			return l << uint(r), nil
		case hdl.OpShr:
			if r < 0 || r > 63 {
				return 0, fmt.Errorf("%s: constant shift amount %d out of range", v.Pos, r)
			}
			return int64(uint64(l) >> uint(r)), nil
		}
		return 0, fmt.Errorf("%s: unsupported constant binary operator", v.Pos)
	case *hdl.Ternary:
		c, err := Eval(v.Cond, env)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return Eval(v.Then, env)
		}
		return Eval(v.Else, env)
	}
	return 0, fmt.Errorf("elab: expression %s is not supported in constant context", hdl.FormatExpr(e))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
