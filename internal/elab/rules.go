package elab

import (
	"fmt"

	"repro/internal/hdl"
)

// The µHDL rules every consumer of an elaborated instance shares: the
// self-determined width of an expression, the range checks of constant
// bit and part selects, the procedural for loop, and the resolution of
// a module's parameters. Synthesis (internal/synth) and the RTL interpreter
// (internal/sim) both call these, so the gates and the interpreter
// truncate, select and size identically — which is what makes checking
// one against the other meaningful.

// Width returns the self-determined width of e in scope env, with the
// procedural integer variables intVars (nil outside always blocks) in
// scope as constants. It follows the Verilog sizing rules: arithmetic
// and bitwise operators take the wider operand, comparisons, logical
// operators and reductions are 1 bit, shifts take the left operand's
// width, and concatenations and replications sum their parts.
func Width(inst *Instance, env *Env, intVars map[string]int64, e hdl.Expr) (int, error) {
	switch v := e.(type) {
	case *hdl.Number:
		if v.Width > 0 {
			return v.Width, nil
		}
		return 32, nil
	case *hdl.Ident:
		if _, ok := env.Lookup(v.Name); ok {
			return 32, nil
		}
		if _, ok := intVars[v.Name]; ok {
			return 32, nil
		}
		if n, ok := inst.ResolveNet(v.Name, env); ok {
			return n.Width, nil
		}
		if inst.IsIntVar(v.Name) {
			return 32, nil
		}
		return 0, fmt.Errorf("undeclared signal %q", v.Name)
	case *hdl.Unary:
		switch v.Op {
		case hdl.OpNot, hdl.OpNeg:
			return Width(inst, env, intVars, v.X)
		default:
			return 1, nil
		}
	case *hdl.Binary:
		switch v.Op {
		case hdl.OpAdd, hdl.OpSub, hdl.OpMul, hdl.OpDiv, hdl.OpMod,
			hdl.OpAnd, hdl.OpOr, hdl.OpXor, hdl.OpXnor:
			return maxWidth(inst, env, intVars, v.L, v.R)
		case hdl.OpShl, hdl.OpShr:
			return Width(inst, env, intVars, v.L)
		default: // comparisons, logical
			return 1, nil
		}
	case *hdl.Ternary:
		return maxWidth(inst, env, intVars, v.Then, v.Else)
	case *hdl.Index:
		if base, ok := v.Base.(*hdl.Ident); ok {
			if m, ok := inst.ResolveMem(base.Name, env); ok {
				return m.Width, nil
			}
		}
		return 1, nil
	case *hdl.PartSelect:
		scope := env.WithVars(intVars)
		msb, err := Eval(v.MSB, scope)
		if err != nil {
			return 0, fmt.Errorf("part select bounds must be constant: %v", err)
		}
		lsb, err := Eval(v.LSB, scope)
		if err != nil {
			return 0, fmt.Errorf("part select bounds must be constant: %v", err)
		}
		if msb < lsb {
			return 0, fmt.Errorf("reversed part select [%d:%d]", msb, lsb)
		}
		return int(msb - lsb + 1), nil
	case *hdl.Concat:
		total := 0
		for _, p := range v.Parts {
			w, err := Width(inst, env, intVars, p)
			if err != nil {
				return 0, err
			}
			total += w
		}
		return total, nil
	case *hdl.Repl:
		cnt, err := ReplCount(v, env.WithVars(intVars))
		if err != nil {
			return 0, err
		}
		w, err := Width(inst, env, intVars, v.X)
		if err != nil {
			return 0, err
		}
		return int(cnt) * w, nil
	}
	return 0, fmt.Errorf("unsupported expression %T", e)
}

// maxWidth returns the wider of the self-determined widths of a and b.
func maxWidth(inst *Instance, env *Env, intVars map[string]int64, a, b hdl.Expr) (int, error) {
	aw, err := Width(inst, env, intVars, a)
	if err != nil {
		return 0, err
	}
	bw, err := Width(inst, env, intVars, b)
	if err != nil {
		return 0, err
	}
	return max(aw, bw), nil
}

// ReplCount evaluates the count of a replication {n{x}} in scope and
// rejects a count below 1.
func ReplCount(v *hdl.Repl, scope *Env) (int64, error) {
	cnt, err := Eval(v.Count, scope)
	if err != nil {
		return 0, fmt.Errorf("replication count must be constant: %v", err)
	}
	if cnt < 1 {
		return 0, fmt.Errorf("replication count %d must be >= 1", cnt)
	}
	return cnt, nil
}

// BitOffset checks the constant bit index idx of net n, written name in
// the source, and returns the selected bit's offset from n's LSB.
func BitOffset(n *Net, name string, idx int64) (int64, error) {
	bit := idx - n.LSB
	if bit < 0 || bit >= int64(n.Width) {
		return 0, &bitIndexError{idx: idx, name: name}
	}
	return bit, nil
}

// PartRange checks the constant part select name[msb:lsb] of net n and
// returns the offsets of its lowest and highest bits from n's LSB.
func PartRange(n *Net, name string, msb, lsb int64) (lo, hi int64, err error) {
	lo, hi = lsb-n.LSB, msb-n.LSB
	if lo > hi || lo < 0 || hi >= int64(n.Width) {
		return 0, 0, &partSelectError{msb: msb, lsb: lsb, name: name}
	}
	return lo, hi, nil
}

// RunFor drives the procedural for loop v of inst: its variable, a
// declared integer, is bound in vars (the block's integer variables,
// which the caller keeps); init, condition and step evaluate in env
// with vars in scope; body runs once per trip. A loop that passes
// maxLoopIterations trips or whose step leaves the variable unchanged
// is an error.
func RunFor(inst *Instance, env *Env, vars map[string]int64, v *hdl.For, body func() error) error {
	initA, ok1 := v.Init.(*hdl.Assign)
	stepA, ok2 := v.Step.(*hdl.Assign)
	if !ok1 || !ok2 {
		return fmt.Errorf("%s: for init and step must be assignments", v.Pos)
	}
	ident, ok := initA.LHS.(*hdl.Ident)
	if !ok || !inst.IsIntVar(ident.Name) {
		return fmt.Errorf("%s: for loop variable must be a declared integer", v.Pos)
	}
	val, err := Eval(initA.RHS, env.WithVars(vars))
	if err != nil {
		return fmt.Errorf("%s: for init must be constant: %v", v.Pos, err)
	}
	vars[ident.Name] = val
	scope := env.WithVars(vars) // shares vars: sees each trip's value
	for trips := 0; ; trips++ {
		vars[ident.Name] = val
		c, err := Eval(v.Cond, scope)
		if err != nil {
			return fmt.Errorf("%s: for condition must be elaboration-constant: %v", v.Pos, err)
		}
		if c == 0 {
			return nil
		}
		if trips == maxLoopIterations {
			return fmt.Errorf("%s: for loop exceeds %d iterations", v.Pos, maxLoopIterations)
		}
		if err := body(); err != nil {
			return err
		}
		next, err := Eval(stepA.RHS, scope)
		if err != nil {
			return fmt.Errorf("%s: for step must be constant: %v", v.Pos, err)
		}
		if next == val {
			return fmt.Errorf("%s: for loop does not advance", v.Pos)
		}
		val = next
	}
}

// ResolveParams returns the full parameter binding of mod: declared
// defaults resolved left to right (a default may reference earlier
// parameters), each replaced by its override when one is given. An
// override naming no declared parameter is an error.
func ResolveParams(mod *hdl.Module, overrides map[string]int64) (map[string]int64, error) {
	params := make(map[string]int64, len(mod.Params))
	// Defaults evaluate against the map being filled, so each sees
	// exactly the parameters declared before it.
	env := &Env{base: params, prefixes: rootPrefixes}
	for _, p := range mod.Params {
		if _, dup := params[p.Name]; dup {
			return nil, fmt.Errorf("elab: constant %q redefined in the same scope", p.Name)
		}
		v, ok := overrides[p.Name]
		if !ok {
			var err error
			if v, err = Eval(p.Value, env); err != nil {
				return nil, fmt.Errorf("elab: default of %s.%s: %w", mod.Name, p.Name, err)
			}
		}
		params[p.Name] = v
	}
	for name := range overrides {
		if _, ok := params[name]; !ok {
			return nil, fmt.Errorf("elab: module %s has no parameter %q", mod.Name, name)
		}
	}
	return params, nil
}
