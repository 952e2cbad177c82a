package elab

import (
	"fmt"

	"repro/internal/hdl"
)

// validateRanges statically checks every constant bit index and part
// select of an elaborated instance against the declared net widths.
// This matters beyond error reporting: the accounting scaling rule
// lowers parameters until something breaks, and a field extraction
// like inst[27:25] must pin the instruction width just as it would in
// a real synthesis flow.
func (el *elaborator) validateRanges(inst *Instance) error {
	for _, ea := range inst.Assigns {
		if err := el.checkExpr(inst, ea.Item.LHS, ea.Env); err != nil {
			return el.wrapPos(err, ea.Item.Pos)
		}
		if err := el.checkExpr(inst, ea.Item.RHS, ea.Env); err != nil {
			return el.wrapPos(err, ea.Item.Pos)
		}
	}
	for _, ab := range inst.Alwayses {
		if err := el.checkStmt(inst, ab.Item.Body, ab.Env); err != nil {
			return el.wrapPos(err, ab.Item.Pos)
		}
	}
	for _, c := range inst.Children {
		for _, b := range c.Ports {
			if b.Value == nil {
				continue
			}
			if err := el.checkExpr(inst, b.Value, c.Env); err != nil {
				return el.wrapPos(err, b.Pos)
			}
		}
	}
	return nil
}

// wrapPos prefixes a range-check error with its source position.
func (el *elaborator) wrapPos(err error, pos hdl.Pos) error {
	return &posError{pos: pos, err: err}
}

func (el *elaborator) checkStmt(inst *Instance, s hdl.Stmt, env *Env) error {
	switch v := s.(type) {
	case *hdl.Block:
		for _, sub := range v.Stmts {
			if err := el.checkStmt(inst, sub, env); err != nil {
				return err
			}
		}
	case *hdl.Assign:
		if err := el.checkExpr(inst, v.LHS, env); err != nil {
			return err
		}
		return el.checkExpr(inst, v.RHS, env)
	case *hdl.If:
		if err := el.checkExpr(inst, v.Cond, env); err != nil {
			return err
		}
		if err := el.checkStmt(inst, v.Then, env); err != nil {
			return err
		}
		if v.Else != nil {
			return el.checkStmt(inst, v.Else, env)
		}
	case *hdl.Case:
		if err := el.checkExpr(inst, v.Subject, env); err != nil {
			return err
		}
		for _, item := range v.Items {
			for _, e := range item.Exprs {
				if err := el.checkExpr(inst, e, env); err != nil {
					return err
				}
			}
			if err := el.checkStmt(inst, item.Body, env); err != nil {
				return err
			}
		}
	case *hdl.For:
		// Loop bodies index with the (non-constant here) loop
		// variable; only the statically-known parts are checked.
		if err := el.checkStmt(inst, v.Init, env); err != nil {
			return err
		}
		if err := el.checkStmt(inst, v.Step, env); err != nil {
			return err
		}
		return el.checkStmt(inst, v.Body, env)
	}
	return nil
}

func (el *elaborator) checkExpr(inst *Instance, e hdl.Expr, env *Env) error {
	switch v := e.(type) {
	case *hdl.Ident, *hdl.Number:
		return nil
	case *hdl.Unary:
		return el.checkExpr(inst, v.X, env)
	case *hdl.Binary:
		if err := el.checkExpr(inst, v.L, env); err != nil {
			return err
		}
		return el.checkExpr(inst, v.R, env)
	case *hdl.Ternary:
		if err := el.checkExpr(inst, v.Cond, env); err != nil {
			return err
		}
		if err := el.checkExpr(inst, v.Then, env); err != nil {
			return err
		}
		return el.checkExpr(inst, v.Else, env)
	case *hdl.Index:
		if base, ok := v.Base.(*hdl.Ident); ok {
			if n, found := inst.ResolveNet(base.Name, env); found {
				if idx, err := Eval(v.Idx, env); err == nil {
					if _, err := BitOffset(n, base.Name, idx); err != nil {
						return &selectError{pos: v.Pos, width: n.Width, err: err}
					}
				}
			}
		}
		return el.checkExpr(inst, v.Idx, env)
	case *hdl.PartSelect:
		if base, ok := v.Base.(*hdl.Ident); ok {
			if n, found := inst.ResolveNet(base.Name, env); found {
				msb, err1 := Eval(v.MSB, env)
				lsb, err2 := Eval(v.LSB, env)
				if err1 == nil && err2 == nil {
					if _, _, err := PartRange(n, base.Name, msb, lsb); err != nil {
						return &selectError{pos: v.Pos, width: n.Width, err: err}
					}
				}
			}
		}
		return nil
	case *hdl.Concat:
		for _, p := range v.Parts {
			if err := el.checkExpr(inst, p, env); err != nil {
				return err
			}
		}
	case *hdl.Repl:
		if cnt, err := Eval(v.Count, env); err == nil && cnt < 1 {
			return fmt.Errorf("%s: replication count %d must be >= 1", v.Pos, cnt)
		}
		return el.checkExpr(inst, v.X, env)
	}
	return nil
}
