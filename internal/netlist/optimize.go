package netlist

import (
	"fmt"

	"repro/internal/scratch"
)

// OptimizeResult reports what the optimization passes removed.
type OptimizeResult struct {
	ConstFolded int // cells simplified away by constant propagation
	Merged      int // cells merged by structural hashing (CSE)
	DeadRemoved int // cells removed as unreachable from any output
	// Iterations is the number of equivalent full sweeps the worklist
	// performed: total cell visits divided by the number of
	// combinational cells, rounded up. A netlist that settles in the
	// initial topological sweep (the common case) reports 1.
	Iterations int
	// Converged reports that the worklist drained within the revisit
	// budget. It is false only when OptimizeWS also returns an error.
	Converged bool
}

// OptimizeWS runs the standard post-synthesis cleanup: constant folding,
// structural hashing, buffer elision, and dead-logic removal. The
// passes preserve the observable behaviour at primary outputs and
// RAM/FF state. OptimizeWS returns a new Netlist; the input is not
// modified.
//
// The accounting experiments (Figure 6) depend on this pass: the paper
// defines minimal parameterization in terms of what "constant
// propagation and dead code elimination" would remove, and this is
// where those removals actually happen for synthesis metrics.
//
// Implementation: a single worklist-driven sweep instead of a
// rebuild-the-world fixpoint. Net replacements live in a union-find
// with path compression; structural hashing uses one persistent
// open-addressed table; a dirty-cell worklist re-examines exactly the
// cells whose resolved inputs changed after they were first processed.
// Cells are seeded in topological order, so on a DAG every cell sees
// its fully-substituted inputs the first time and the worklist drains
// without revisits — O(cells + edges) total. The output is
// bit-identical (same Hash()) to the old iterated fixpoint: processing
// order, folding rules, CSE winner selection, and dead-removal roots
// are all preserved, which internal/netlist's golden tests pin against
// a reference implementation of the old pass.
//
// The pass's scratch (raw topological order, union-find, consumer
// adjacency, hash table, worklist, liveness) comes from ws; nil means a
// fresh workspace. Under a non-nil ws the returned netlist lives in
// ws's memory: its cells, RAM list and ports are written into one
// buffer each that ws owns, and its driver table, topological order
// and Stats bitmap reuse the raw-analysis scratch, which is dead once
// the pass returns. It is valid until ws's next run (see Workspace).
// Only the RAM macros are copied into fresh memory. Under a nil ws the netlist
// is independent of every later call. The output is bit-identical for
// any workspace, dirty or fresh.
func OptimizeWS(n *Netlist, ws *Workspace) (*Netlist, OptimizeResult, error) {
	res := OptimizeResult{Converged: true}
	owned := ws != nil
	ws = orFresh(ws)
	// The optimizer's input is typically discarded right after the
	// pass, so its derived tables go into workspace scratch instead of
	// being memoized into the netlist.
	_, order, err := ws.topoInto(n)
	if err != nil {
		return nil, res, err
	}
	numNets := n.NumNets()
	nc := len(n.Cells)
	c0, c1 := n.Const0, n.Const1

	// Union-find over nets. A removed cell's output is unioned into its
	// replacement net; the replacement is always a class root at union
	// time (constants, ports, RAM outputs, and kept-cell outputs are
	// never unioned into anything), so find() resolves every pin to the
	// same terminal net the old chain-chasing substitution map produced.
	// ring links the members of each class in a circular list so a
	// later union can find every raw net whose consumers must be
	// revisited.
	parent := scratch.Raw(&ws.oParent, numNets)
	ring := scratch.Raw(&ws.oRing, numNets)
	for i := range parent {
		parent[i] = NetID(i)
		ring[i] = int32(i)
	}
	find := func(id NetID) NetID {
		if id == Nil {
			return Nil
		}
		root := id
		for parent[root] != root {
			root = parent[root]
		}
		for parent[id] != root {
			parent[id], id = root, parent[id]
		}
		return root
	}

	// Consumer adjacency (CSR) over combinational cells, keyed by raw
	// pin ids. Sequential cells are never re-examined (they do not fold)
	// so they carry no edges.
	start := scratch.Zero(&ws.oStart, numNets+1)
	for _, ci := range order {
		c := &n.Cells[ci]
		for _, in := range c.Inputs() {
			if in != Nil {
				start[in+1]++
			}
		}
	}
	for i := 0; i < numNets; i++ {
		start[i+1] += start[i]
	}
	consumers := scratch.Raw(&ws.oConsumers, int(start[numNets]))
	fill := scratch.Zero(&ws.oFill, numNets)
	for _, ci := range order {
		c := &n.Cells[ci]
		for _, in := range c.Inputs() {
			if in != Nil {
				consumers[int(start[in])+int(fill[in])] = int32(ci)
				fill[in]++
			}
		}
	}

	// Persistent structural-hash table (open addressing, linear probe).
	// Entries are never deleted: a stale entry's key contains a net that
	// was a class root when the entry was written and has since been
	// merged away, and find() never returns such a net again, so stale
	// keys are unmatchable by construction.
	size := 1
	for size < 2*len(order)+8 {
		size <<= 1
	}
	keys := scratch.Zero(&ws.oKeys, size)
	kfull := scratch.Zero(&ws.oKfull, size)
	kout := scratch.Zero(&ws.oKout, size)
	entries := 0
	hashOf := func(k hashKey) uint32 {
		h := uint64(k.t)
		for _, v := range [4]NetID{k.a, k.b, k.c, k.clk} {
			h ^= uint64(uint32(v)) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		}
		return uint32(h ^ (h >> 32))
	}
	// lookup returns the slot holding k, or the insertion slot for it.
	lookup := func(k hashKey) (slot int, found bool) {
		mask := size - 1
		i := int(hashOf(k)) & mask
		for {
			if !kfull[i] {
				return i, false
			}
			if keys[i] == k {
				return i, true
			}
			i = (i + 1) & mask
		}
	}
	grow := func() {
		oldKeys, oldFull, oldOut := keys, kfull, kout
		size <<= 1
		keys = make([]hashKey, size)
		kfull = make([]bool, size)
		kout = make([]NetID, size)
		for i, full := range oldFull {
			if !full {
				continue
			}
			slot, _ := lookup(oldKeys[i])
			keys[slot] = oldKeys[i]
			kfull[slot] = true
			kout[slot] = oldOut[i]
		}
		ws.oKeys, ws.oKfull, ws.oKout = keys, kfull, kout
	}

	// Worklist, seeded with every combinational cell in topological
	// order so the initial sweep reproduces the old pass exactly.
	queue := scratch.Raw(&ws.oQueue, len(order))
	inQueue := scratch.Zero(&ws.oInQueue, nc)
	for i, ci := range order {
		queue[i] = int32(ci)
		inQueue[ci] = true
	}
	processed := scratch.Zero(&ws.oProcessed, nc)
	removed := scratch.Zero(&ws.oRemoved, nc)

	union := func(from, to NetID) {
		rf, rt := find(from), find(to)
		if rf == rt {
			return
		}
		// The resolved inputs of every already-processed consumer of
		// from's class just changed: put them back on the worklist.
		m := rf
		for {
			for j := start[m]; j < start[m+1]; j++ {
				ci := consumers[j]
				if processed[ci] && !removed[ci] && !inQueue[ci] {
					inQueue[ci] = true
					queue = append(queue, ci)
				}
			}
			m = NetID(ring[m])
			if m == rf {
				break
			}
		}
		parent[rf] = rt
		ring[rf], ring[rt] = ring[rt], ring[rf]
	}

	pops := 0
	maxPops := 50 * (len(order) + 1)
	for head := 0; head < len(queue); head++ {
		ci := int(queue[head])
		inQueue[ci] = false
		if removed[ci] {
			continue
		}
		pops++
		if pops > maxPops {
			res.Converged = false
			res.Iterations = maxPops / (len(order) + 1)
			return nil, res, fmt.Errorf("netlist: optimize did not converge after %d cell visits (%d cells)", pops, len(order))
		}
		processed[ci] = true
		cell := &n.Cells[ci]
		a := find(cell.In[0])
		b := find(cell.In[1])
		s := find(cell.In[2])

		simplifyTo := func(id NetID) {
			union(cell.Out, id)
			removed[ci] = true
			res.ConstFolded++
		}
		isConst := func(id NetID) (bool, bool) {
			switch id {
			case c0:
				return false, true
			case c1:
				return true, true
			}
			return false, false
		}

		av, aok := isConst(a)
		bv, bok := isConst(b)
		switch cell.Type {
		case Buf:
			simplifyTo(a)
			continue
		case Inv:
			if aok {
				simplifyTo(constNet(!av, c0, c1))
				continue
			}
		case And2:
			switch {
			case aok && !av, bok && !bv:
				simplifyTo(c0)
				continue
			case aok && av:
				simplifyTo(b)
				continue
			case bok && bv:
				simplifyTo(a)
				continue
			case a == b:
				simplifyTo(a)
				continue
			}
		case Or2:
			switch {
			case aok && av, bok && bv:
				simplifyTo(c1)
				continue
			case aok && !av:
				simplifyTo(b)
				continue
			case bok && !bv:
				simplifyTo(a)
				continue
			case a == b:
				simplifyTo(a)
				continue
			}
		case Nand2:
			if (aok && !av) || (bok && !bv) {
				simplifyTo(c1)
				continue
			}
		case Nor2:
			if (aok && av) || (bok && bv) {
				simplifyTo(c0)
				continue
			}
		case Xor2:
			switch {
			case aok && bok:
				simplifyTo(constNet(av != bv, c0, c1))
				continue
			case aok && !av:
				simplifyTo(b)
				continue
			case bok && !bv:
				simplifyTo(a)
				continue
			case a == b:
				simplifyTo(c0)
				continue
			}
		case Xnor2:
			if aok && bok {
				simplifyTo(constNet(av == bv, c0, c1))
				continue
			}
			if a == b {
				simplifyTo(c1)
				continue
			}
		case Mux2:
			sv, sok := isConst(s)
			switch {
			case sok && !sv:
				simplifyTo(a)
				continue
			case sok && sv:
				simplifyTo(b)
				continue
			case a == b:
				simplifyTo(a)
				continue
			case aok && bok && !av && bv:
				simplifyTo(s)
				continue
			}
		}

		// Structural hashing: identical (type, inputs) cells merge.
		// Commutative gates normalize input order.
		ka, kb := a, b
		if commutative(cell.Type) && ka > kb {
			ka, kb = kb, ka
		}
		key := hashKey{t: cell.Type, a: ka, b: kb, c: s, clk: find(cell.Clk)}
		slot, found := lookup(key)
		if found {
			if prev := kout[slot]; prev != cell.Out {
				union(cell.Out, prev)
				removed[ci] = true
				res.Merged++
			}
			continue
		}
		keys[slot] = key
		kfull[slot] = true
		kout[slot] = cell.Out
		if entries++; 2*entries >= size {
			grow()
		}
	}
	if len(order) > 0 {
		res.Iterations = (pops + len(order) - 1) / len(order)
	} else {
		res.Iterations = 1
	}
	ws.oQueue = queue[:0] // capture worklist growth for reuse

	// Dead-logic removal over the folded structure: cells are live only
	// if they reach a primary output or a RAM pin (read-port outputs are
	// RAM-driven and are not roots). A kept cell's output was never
	// unioned into anything, so the driver table indexes by the raw
	// output net.
	driver := scratch.Raw(&ws.oDriver, numNets)
	for i := range driver {
		driver[i] = -1
	}
	for ci := range n.Cells {
		if !removed[ci] {
			driver[n.Cells[ci].Out] = int32(ci)
		}
	}
	live := scratch.Zero(&ws.oLive, nc)
	seenNet := scratch.Zero(&ws.oSeenNet, numNets)
	stack := ws.oStack[:0]
	push := func(id NetID) {
		if id == Nil {
			return
		}
		id = find(id)
		if !seenNet[id] {
			seenNet[id] = true
			stack = append(stack, id)
		}
	}
	for _, p := range n.Outputs {
		push(p.Net)
	}
	for _, r := range n.RAMs {
		push(r.Clk)
		for _, wp := range r.WritePorts {
			push(wp.En)
			for _, bb := range wp.Addr {
				push(bb)
			}
			for _, bb := range wp.Data {
				push(bb)
			}
		}
		for _, rp := range r.ReadPorts {
			for _, bb := range rp.Addr {
				push(bb)
			}
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d := driver[id]
		if d < 0 || live[d] {
			continue
		}
		live[d] = true
		c := &n.Cells[d]
		for _, in := range c.Inputs() {
			push(in)
		}
		push(c.Clk)
	}
	ws.oStack = stack[:0]

	// Assemble the output in one pass: surviving cells in original
	// order with inputs resolved through the union-find (outputs of
	// kept cells are never substituted), RAM macros and ports rewritten
	// the same way. The source netlist is never written, so its cached
	// derived structures stay valid.
	nLive := 0
	for ci := range n.Cells {
		if live[ci] {
			nLive++
		} else if !removed[ci] {
			res.DeadRemoved++
		}
	}
	// Optimization keeps the source net ID space.
	out := &Netlist{Nets: n.Nets, Const0: c0, Const1: c1}
	cells := scratch.Raw(&ws.oCells, nLive)[:0]
	for ci := range n.Cells {
		if !live[ci] {
			continue
		}
		c := n.Cells[ci]
		for j := range c.In {
			c.In[j] = find(c.In[j])
		}
		c.Clk = find(c.Clk)
		cells = append(cells, c)
	}
	out.Cells = cells[:nLive:nLive]
	rams := scratch.Raw(&ws.oRAMs, len(n.RAMs))
	for ri, r := range n.RAMs {
		rc := *r
		rc.Clk = find(r.Clk)
		rc.WritePorts = make([]RAMWritePort, len(r.WritePorts))
		for i, wp := range r.WritePorts {
			rc.WritePorts[i] = RAMWritePort{
				En:   find(wp.En),
				Addr: mapIDs(wp.Addr, find),
				Data: mapIDs(wp.Data, find),
			}
		}
		rc.ReadPorts = make([]RAMReadPort, len(r.ReadPorts))
		for i, rp := range r.ReadPorts {
			// Read-port outputs are RAM-driven; no substitution.
			rc.ReadPorts[i] = RAMReadPort{
				Addr: mapIDs(rp.Addr, find),
				Out:  append([]NetID(nil), rp.Out...),
			}
		}
		rams[ri] = &rc
	}
	out.RAMs = rams[:len(rams):len(rams)]
	nIn := len(n.Inputs)
	ports := scratch.Raw(&ws.oPorts, nIn+len(n.Outputs))
	copy(ports, n.Inputs)
	for i, p := range n.Outputs {
		ports[nIn+i] = PortBit{Name: p.Name, Net: find(p.Net)}
	}
	out.Inputs = ports[:nIn:nIn]
	out.Outputs = ports[nIn:len(ports):len(ports)]
	if owned {
		out.derived.ws = ws
	}
	return out, res, nil
}

type hashKey struct {
	t       CellType
	a, b, c NetID
	clk     NetID
}

func constNet(v bool, c0, c1 NetID) NetID {
	if v {
		return c1
	}
	return c0
}

func commutative(t CellType) bool {
	switch t {
	case And2, Or2, Nand2, Nor2, Xor2, Xnor2:
		return true
	}
	return false
}
