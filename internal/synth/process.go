package synth

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/netlist"
)

// procState is the symbolic-execution state of one always block.
//
// Branches are handled by clone-and-merge: each arm executes on a copy
// of the state and the results are recombined with muxes controlled by
// the branch condition. Merging the per-bit "assigned" conditions with
// muxes (rather than ORs of path products) lets complete if/else and
// case/default structures provably assign on every path — mux(c,1,1)
// folds to 1 — which is what separates pure combinational logic from
// inferred latches.
//
// The path parameter threaded through execStmt is used only for memory
// writes, which are collected linearly rather than merged.
type procState struct {
	inst    *elab.Instance
	clocked bool

	vals   map[string][]netlist.NetID // blocking-assigned current values
	condB  map[string][]netlist.NetID // per-bit "assigned" condition
	nb     map[string][]netlist.NetID // nonblocking pending values
	condNB map[string][]netlist.NetID

	intvars map[string]int64
	// memc collects memory write sites in program order; it is shared
	// by every clone of the state (each site carries its own enable,
	// so branch structure is already encoded in the conditions).
	memc *memCollector
}

type memCollector struct {
	sites []memWriteSite
}

type memWriteSite struct {
	mem   *elab.Mem
	write ramWrite
}

// vars returns the block's integer loop variables; nil outside an
// always block (st == nil).
func (st *procState) vars() map[string]int64 {
	if st == nil {
		return nil
	}
	return st.intvars
}

// readVals returns the blocking-updated view of a signal if it has
// been written in this block.
func (st *procState) readVals(name string) ([]netlist.NetID, bool) {
	bits, ok := st.vals[name]
	return bits, ok
}

// clone copies the branch-sensitive parts of the state. Memory writes
// and memOf stay shared (they carry their own enable conditions). The
// clone's tables come from the workspace's free lists; mergeStates
// hands them back.
func (st *procState) clone(s *synthesizer) *procState {
	c := &procState{
		inst:    st.inst,
		clocked: st.clocked,
		vals:    s.cloneBitsMap(st.vals),
		condB:   s.cloneBitsMap(st.condB),
		nb:      s.cloneBitsMap(st.nb),
		condNB:  s.cloneBitsMap(st.condNB),
		intvars: s.ws.intMap(),
		memc:    st.memc, // shared: sites carry their own enables
	}
	for k, v := range st.intvars {
		c.intvars[k] = v
	}
	return c
}

// cloneBitsMap copies a signal→bits table; the value slices come from
// the workspace arena (branch clones are the hot consumer — every
// if/case arm in a clocked process makes four).
func (s *synthesizer) cloneBitsMap(m map[string][]netlist.NetID) map[string][]netlist.NetID {
	out := s.ws.bitsMap()
	for k, v := range m {
		c := s.idSlice(len(v))
		copy(c, v)
		out[k] = c
	}
	return out
}

// release hands a finished state's tables back to the workspace's free
// lists, cleared so they pin nothing.
func (s *synthesizer) release(st *procState) {
	w := s.ws
	for _, m := range [...]map[string][]netlist.NetID{st.vals, st.condB, st.nb, st.condNB} {
		clear(m)
		w.bitsMaps = append(w.bitsMaps, m)
	}
	clear(st.intvars)
	w.intMaps = append(w.intMaps, st.intvars)
}

// mergeStates recombines two branch outcomes into st:
// result = cond ? thenSt : elseSt, per signal bit.
func (s *synthesizer) mergeStates(st, thenSt, elseSt *procState, cond netlist.NetID) error {
	merge := func(valsT, condT, valsE, condE map[string][]netlist.NetID, vals, conds map[string][]netlist.NetID) {
		for _, name := range s.unionKeys(valsT, valsE) {
			declared := s.netBits(st.inst, name)
			bT, okT := valsT[name]
			bE, okE := valsE[name]
			cT, cE := condT[name], condE[name]
			if !okT {
				bT = declared
				cT = s.idSlice(len(declared))
				for i := range cT {
					cT[i] = s.b.Const0()
				}
			}
			if !okE {
				bE = declared
				cE = s.idSlice(len(declared))
				for i := range cE {
					cE[i] = s.b.Const0()
				}
			}
			mergedV := s.idSlice(len(declared))
			mergedC := s.idSlice(len(declared))
			for i := range declared {
				mergedV[i] = s.b.Mux(cond, bE[i], bT[i])
				mergedC[i] = s.b.Mux(cond, cE[i], cT[i])
			}
			vals[name] = mergedV
			conds[name] = mergedC
		}
	}
	merge(thenSt.vals, thenSt.condB, elseSt.vals, elseSt.condB, st.vals, st.condB)
	merge(thenSt.nb, thenSt.condNB, elseSt.nb, elseSt.condNB, st.nb, st.condNB)

	// Integer loop variables must agree across branches — they are
	// elaboration-time values and cannot be muxed.
	for k, vT := range thenSt.intvars {
		if vE, ok := elseSt.intvars[k]; ok && vE != vT {
			return fmt.Errorf("integer %q takes different values (%d vs %d) on the branches of a conditional", k, vT, vE)
		}
		st.intvars[k] = vT
	}
	for k, vE := range elseSt.intvars {
		if _, ok := thenSt.intvars[k]; !ok {
			st.intvars[k] = vE
		}
	}
	s.release(thenSt)
	s.release(elseSt)
	return nil
}

// unionKeys returns the sorted union of a's and b's keys in the
// workspace's key scratch, valid until the next call.
func (s *synthesizer) unionKeys(a, b map[string][]netlist.NetID) []string {
	keys := s.ws.keys[:0]
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	s.ws.keys = keys
	return keys
}

// alwaysBlock lowers one always block.
func (s *synthesizer) alwaysBlock(inst *elab.Instance, ab *elab.ElabAlways) error {
	clocked := false
	for _, it := range ab.Item.Sens {
		if it.Edge == hdl.EdgePos || it.Edge == hdl.EdgeNeg {
			clocked = true
		}
	}
	st := &procState{
		inst:    inst,
		clocked: clocked,
		vals:    s.ws.bitsMap(),
		condB:   s.ws.bitsMap(),
		nb:      s.ws.bitsMap(),
		condNB:  s.ws.bitsMap(),
		intvars: s.ws.intMap(),
		memc:    &memCollector{},
	}
	if err := s.execStmt(inst, ab.Env, st, ab.Item.Body, s.b.Const1()); err != nil {
		return fmt.Errorf("synth: %s: %w", ab.Item.Pos, err)
	}
	finish := s.finishComb
	if clocked {
		finish = s.finishClocked
	}
	if err := finish(inst, ab, st); err != nil {
		return err
	}
	s.release(st)
	return nil
}

func (s *synthesizer) finishClocked(inst *elab.Instance, ab *elab.ElabAlways, st *procState) error {
	clockName, _ := pickClock(ab.Item.Sens)
	clkNet, ok := inst.ResolveNet(clockName, ab.Env)
	if !ok {
		return fmt.Errorf("synth: %s: clock %q is not a declared signal", ab.Item.Pos, clockName)
	}
	if clkNet.Width != 1 {
		return fmt.Errorf("synth: %s: clock %q must be 1 bit wide", ab.Item.Pos, clockName)
	}
	clk := s.netBits(inst, clkNet.Name)[0]

	for _, name := range sortedKeys(st.vals) {
		if _, both := st.nb[name]; both {
			return fmt.Errorf("synth: %s: signal %q mixes blocking and nonblocking assignment", ab.Item.Pos, name)
		}
	}
	drive := func(name string, bits, conds []netlist.NetID) error {
		declared := s.netBits(inst, name)
		for k := range bits {
			if cv, isC := s.b.IsConst(conds[k]); isC && !cv {
				continue // never assigned
			}
			// Hold on not-assigned paths: D = assigned ? value : Q.
			d := s.b.Mux(conds[k], declared[k], bits[k])
			q := s.b.NewDFF(d, clk)
			if err := s.b.Alias(declared[k], q); err != nil {
				return fmt.Errorf("synth: %s: conflicting drivers for %s: %w", ab.Item.Pos, name, err)
			}
		}
		return nil
	}
	for _, name := range sortedKeys(st.nb) {
		if err := drive(name, st.nb[name], st.condNB[name]); err != nil {
			return err
		}
	}
	// Blocking assignment in a clocked block still infers flops for
	// values live at block end.
	for _, name := range sortedKeys(st.vals) {
		if err := drive(name, st.vals[name], st.condB[name]); err != nil {
			return err
		}
	}
	// Each memory write site becomes one synchronous write port, in
	// program order.
	for _, site := range st.memc.sites {
		site.write.clk = clk
		rb := s.ramFor(inst.Path, site.mem)
		rb.writes = append(rb.writes, site.write)
	}
	return nil
}

func (s *synthesizer) finishComb(inst *elab.Instance, ab *elab.ElabAlways, st *procState) error {
	if len(st.memc.sites) > 0 {
		return fmt.Errorf("synth: %s: memory writes require a clocked always block", ab.Item.Pos)
	}
	if len(st.nb) > 0 {
		return fmt.Errorf("synth: %s: nonblocking assignment in a combinational block is not supported", ab.Item.Pos)
	}
	for _, name := range sortedKeys(st.vals) {
		bits := st.vals[name]
		conds := st.condB[name]
		declared := s.netBits(inst, name)
		for k := range bits {
			cv, isC := s.b.IsConst(conds[k])
			switch {
			case isC && !cv:
				// Bit never assigned by this block.
			case isC && cv:
				if err := s.b.Alias(declared[k], bits[k]); err != nil {
					return fmt.Errorf("synth: %s: conflicting drivers for %s: %w", ab.Item.Pos, name, err)
				}
			default:
				// Incomplete assignment: infer a transparent latch.
				q := s.b.NewLatch(bits[k], conds[k])
				if err := s.b.Alias(declared[k], q); err != nil {
					return fmt.Errorf("synth: %s: conflicting drivers for %s: %w", ab.Item.Pos, name, err)
				}
			}
		}
	}
	return nil
}

// execStmt symbolically executes one statement. path is the current
// path condition, used only for memory-write enables.
func (s *synthesizer) execStmt(inst *elab.Instance, env *elab.Env, st *procState, stmt hdl.Stmt, path netlist.NetID) error {
	switch v := stmt.(type) {
	case *hdl.Block:
		for _, sub := range v.Stmts {
			if err := s.execStmt(inst, env, st, sub, path); err != nil {
				return err
			}
		}
		return nil

	case *hdl.Assign:
		return s.execAssign(inst, env, st, v, path)

	case *hdl.If:
		c, err := s.condBit(inst, env, st, v.Cond)
		if err != nil {
			return err
		}
		thenSt := st.clone(s)
		if err := s.execStmt(inst, env, thenSt, v.Then, s.b.And(path, c)); err != nil {
			return err
		}
		elseSt := st.clone(s)
		if v.Else != nil {
			if err := s.execStmt(inst, env, elseSt, v.Else, s.b.And(path, s.b.Not(c))); err != nil {
				return err
			}
		}
		return s.mergeStates(st, thenSt, elseSt, c)

	case *hdl.Case:
		return s.execCase(inst, env, st, v, path)

	case *hdl.For:
		return elab.RunFor(inst, env, st.intvars, v, func() error {
			return s.execStmt(inst, env, st, v.Body, path)
		})
	}
	return fmt.Errorf("unsupported statement %T", stmt)
}

func (s *synthesizer) execCase(inst *elab.Instance, env *elab.Env, st *procState, v *hdl.Case, path netlist.NetID) error {
	sw, err := elab.Width(inst, env, st.intvars, v.Subject)
	if err != nil {
		return err
	}
	subj, err := s.exprAt(inst, env, st, v.Subject, sw)
	if err != nil {
		return err
	}
	// A case statement is an if/else-if chain with the default as the
	// final else. Arms are processed recursively so that each level is
	// a clean two-way merge.
	var defaultBody hdl.Stmt
	arms := make([]hdl.CaseItem, 0, len(v.Items))
	for _, item := range v.Items {
		if item.Exprs == nil {
			if defaultBody != nil {
				return fmt.Errorf("%s: multiple default arms", item.Pos)
			}
			defaultBody = item.Body
			continue
		}
		arms = append(arms, item)
	}
	var exec func(st *procState, idx int, path netlist.NetID) error
	exec = func(st *procState, idx int, path netlist.NetID) error {
		if idx == len(arms) {
			if defaultBody != nil {
				return s.execStmt(inst, env, st, defaultBody, path)
			}
			return nil
		}
		item := arms[idx]
		match := s.b.Const0()
		for _, le := range item.Exprs {
			// casez labels may carry wildcard digits: compare only the
			// cared-for bit positions.
			if num, ok := le.(*hdl.Number); ok && num.CareMask != 0 {
				if !v.IsCasez {
					return fmt.Errorf("%s: wildcard label requires casez", item.Pos)
				}
				var cmpBits []netlist.NetID
				for bit := 0; bit < sw; bit++ {
					if bit < 64 && (num.CareMask>>uint(bit))&1 == 0 {
						continue
					}
					var want netlist.NetID
					if bit < 64 && (num.Value>>uint(bit))&1 == 1 {
						want = s.b.Const1()
					} else {
						want = s.b.Const0()
					}
					cmpBits = append(cmpBits, s.b.Xnor(subj[bit], want))
				}
				match = s.b.Or(match, s.reduceAnd(cmpBits))
				continue
			}
			lb, err := s.exprAt(inst, env, st, le, sw)
			if err != nil {
				return err
			}
			match = s.b.Or(match, s.eqVec(subj, lb))
		}
		thenSt := st.clone(s)
		if err := s.execStmt(inst, env, thenSt, item.Body, s.b.And(path, match)); err != nil {
			return err
		}
		elseSt := st.clone(s)
		if err := exec(elseSt, idx+1, s.b.And(path, s.b.Not(match))); err != nil {
			return err
		}
		return s.mergeStates(st, thenSt, elseSt, match)
	}
	return exec(st, 0, path)
}

func (s *synthesizer) execAssign(inst *elab.Instance, env *elab.Env, st *procState, v *hdl.Assign, path netlist.NetID) error {
	// Integer loop-variable bookkeeping assignment?
	if ident, ok := v.LHS.(*hdl.Ident); ok && inst.IsIntVar(ident.Name) {
		val, err := elab.Eval(v.RHS, env.WithVars(st.intvars))
		if err != nil {
			return fmt.Errorf("%s: integer %q must be assigned a constant: %v", v.Pos, ident.Name, err)
		}
		st.intvars[ident.Name] = val
		return nil
	}
	// Memory write: mem[addr] <= data.
	if idx, ok := v.LHS.(*hdl.Index); ok {
		if base, ok := idx.Base.(*hdl.Ident); ok {
			if m, found := inst.ResolveMem(base.Name, env); found {
				return s.execMemWrite(inst, env, st, v, m, idx.Idx, path)
			}
		}
	}
	targets, err := s.procTargets(inst, env, st, v.LHS)
	if err != nil {
		return fmt.Errorf("%s: %v", v.Pos, err)
	}
	rhs, err := s.expr(inst, env, st, v.RHS, targets.width())
	if err != nil {
		return fmt.Errorf("%s: %v", v.Pos, err)
	}
	blocking := v.Blocking
	bitPos := 0
	for _, tgt := range targets.parts {
		if tgt.shared {
			// Variable-index write: one RHS bit fans out to every bit
			// position, each gated by its decoder condition.
			var rb netlist.NetID = s.b.Const0()
			if bitPos < len(rhs) {
				rb = rhs[bitPos]
			}
			bitPos++
			for k := range tgt.bits {
				s.writeBitCond(inst, st, tgt.name, tgt.bits[k], rb, tgt.bitConds[k], blocking)
			}
			continue
		}
		for k := range tgt.bits {
			var rb netlist.NetID = s.b.Const0()
			if bitPos < len(rhs) {
				rb = rhs[bitPos]
			}
			bitPos++
			s.writeBitCond(inst, st, tgt.name, tgt.bits[k], rb, s.b.Const1(), blocking)
		}
	}
	return nil
}

// procTarget describes the destination bits of a procedural assignment
// within one signal.
type procTarget struct {
	name     string
	bits     []int
	bitConds []netlist.NetID // per-bit decoder condition (variable index)
	shared   bool            // all bits consume the same single RHS bit
}

type procTargets struct{ parts []procTarget }

func (p procTargets) width() int {
	w := 0
	for _, t := range p.parts {
		if t.shared {
			w++
		} else {
			w += len(t.bits)
		}
	}
	return w
}

// procTargets resolves a procedural LHS. Unlike continuous
// assignments, variable bit indices are allowed (they lower to per-bit
// write-enable decoders).
func (s *synthesizer) procTargets(inst *elab.Instance, env *elab.Env, st *procState, e hdl.Expr) (procTargets, error) {
	switch v := e.(type) {
	case *hdl.Ident:
		n, ok := inst.ResolveNet(v.Name, env)
		if !ok {
			return procTargets{}, fmt.Errorf("assignment to undeclared signal %q", v.Name)
		}
		bits := s.intSlice(n.Width)
		for i := range bits {
			bits[i] = i
		}
		t := s.tgtSlice(1)
		t[0] = procTarget{name: n.Name, bits: bits}
		return procTargets{parts: t}, nil

	case *hdl.Index:
		base, ok := v.Base.(*hdl.Ident)
		if !ok {
			return procTargets{}, fmt.Errorf("unsupported nested index in lvalue")
		}
		n, ok := inst.ResolveNet(base.Name, env)
		if !ok {
			return procTargets{}, fmt.Errorf("assignment to undeclared signal %q", base.Name)
		}
		if idx, err := elab.Eval(v.Idx, env.WithVars(st.intvars)); err == nil {
			bit, err := elab.BitOffset(n, base.Name, idx)
			if err != nil {
				return procTargets{}, err
			}
			bits := s.intSlice(1)
			bits[0] = int(bit)
			t := s.tgtSlice(1)
			t[0] = procTarget{name: n.Name, bits: bits}
			return procTargets{parts: t}, nil
		}
		// Variable index: write every bit, each gated by idx == position.
		iw, err := elab.Width(inst, env, st.intvars, v.Idx)
		if err != nil {
			return procTargets{}, err
		}
		idxBits, err := s.exprAt(inst, env, st, v.Idx, iw)
		if err != nil {
			return procTargets{}, err
		}
		bits := s.intSlice(n.Width)
		conds := s.idSlice(n.Width)
		for i := 0; i < n.Width; i++ {
			bits[i] = i
			conds[i] = s.eqVec(idxBits, s.constBits(int64(i)+n.LSB, iw))
		}
		t := s.tgtSlice(1)
		t[0] = procTarget{name: n.Name, bits: bits, bitConds: conds, shared: true}
		return procTargets{parts: t}, nil

	case *hdl.PartSelect:
		base, ok := v.Base.(*hdl.Ident)
		if !ok {
			return procTargets{}, fmt.Errorf("unsupported nested part select in lvalue")
		}
		n, ok := inst.ResolveNet(base.Name, env)
		if !ok {
			return procTargets{}, fmt.Errorf("assignment to undeclared signal %q", base.Name)
		}
		scope := env.WithVars(st.intvars)
		msb, err := elab.Eval(v.MSB, scope)
		if err != nil {
			return procTargets{}, err
		}
		lsb, err := elab.Eval(v.LSB, scope)
		if err != nil {
			return procTargets{}, err
		}
		lo, hi, err := elab.PartRange(n, base.Name, msb, lsb)
		if err != nil {
			return procTargets{}, err
		}
		bits := s.intSlice(int(hi - lo + 1))
		for i := range bits {
			bits[i] = int(lo) + i
		}
		t := s.tgtSlice(1)
		t[0] = procTarget{name: n.Name, bits: bits}
		return procTargets{parts: t}, nil

	case *hdl.Concat:
		var parts []procTarget
		for i := len(v.Parts) - 1; i >= 0; i-- {
			sub, err := s.procTargets(inst, env, st, v.Parts[i])
			if err != nil {
				return procTargets{}, err
			}
			parts = append(parts, sub.parts...)
		}
		return procTargets{parts: parts}, nil
	}
	return procTargets{}, fmt.Errorf("expression %s is not assignable", hdl.FormatExpr(e))
}

// writeBitCond records one bit write in the procedural state, gated by
// cond (Const1 for plain assignments, a decoder output for
// variable-index writes).
func (s *synthesizer) writeBitCond(inst *elab.Instance, st *procState, name string, bit int, rhs, cond netlist.NetID, blocking bool) {
	vals, conds := st.nb, st.condNB
	if blocking {
		vals, conds = st.vals, st.condB
	}
	if _, ok := vals[name]; !ok {
		declared := s.netBits(inst, name)
		cp := s.idSlice(len(declared))
		copy(cp, declared)
		vals[name] = cp
		zero := s.idSlice(len(declared))
		for i := range zero {
			zero[i] = s.b.Const0()
		}
		conds[name] = zero
	}
	vals[name][bit] = s.b.Mux(cond, vals[name][bit], rhs)
	conds[name][bit] = s.b.Or(conds[name][bit], cond)
}

func (s *synthesizer) execMemWrite(inst *elab.Instance, env *elab.Env, st *procState, v *hdl.Assign, m *elab.Mem, idxExpr hdl.Expr, path netlist.NetID) error {
	if !st.clocked {
		return fmt.Errorf("%s: memory write outside a clocked block", v.Pos)
	}
	if v.Blocking {
		return fmt.Errorf("%s: memory writes must use nonblocking assignment", v.Pos)
	}
	aw := addrWidth(m.Depth)
	addr, err := s.expr(inst, env, st, idxExpr, aw)
	if err != nil {
		return err
	}
	addr = addr[:aw]
	if m.MinIdx != 0 {
		addr = s.subConst(addr, m.MinIdx)
	}
	data, err := s.expr(inst, env, st, v.RHS, m.Width)
	if err != nil {
		return err
	}
	data = data[:m.Width]
	st.memc.sites = append(st.memc.sites, memWriteSite{
		mem:   m,
		write: ramWrite{en: path, addr: addr, data: data},
	})
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
