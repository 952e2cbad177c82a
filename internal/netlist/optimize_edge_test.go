package netlist_test

import (
	"testing"

	"repro/internal/netlist"
)

// Edge-case coverage for the worklist optimizer, each case checked
// both against expected structure and against the reference fixpoint.

// chainNetlist builds in -> BUF -> BUF -> BUF -> y, every stage on a
// net of its own (a chain of distinct nets must not block buffer
// elision, which keys on structure only).
func chainNetlist() *netlist.Netlist {
	n := &netlist.Netlist{
		Const0: 0,
		Const1: 1,
		Cells: []netlist.Cell{
			{Type: netlist.Buf, In: [3]netlist.NetID{2, netlist.Nil, netlist.Nil}, Clk: netlist.Nil, Out: 3},
			{Type: netlist.Buf, In: [3]netlist.NetID{3, netlist.Nil, netlist.Nil}, Clk: netlist.Nil, Out: 4},
			{Type: netlist.Buf, In: [3]netlist.NetID{4, netlist.Nil, netlist.Nil}, Clk: netlist.Nil, Out: 5},
		},
		Inputs:  []netlist.PortBit{{Name: "in", Net: 2}},
		Outputs: []netlist.PortBit{{Name: "y", Net: 5}},
	}
	n.Nets = 7
	return n
}

func TestOptimizeBufferChainRenamedNets(t *testing.T) {
	n := chainNetlist()
	opt, res, err := netlist.OptimizeWS(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("Converged = false")
	}
	if res.ConstFolded != 3 {
		t.Errorf("folded = %d, want 3 (whole buffer chain)", res.ConstFolded)
	}
	if len(opt.Cells) != 0 {
		t.Errorf("cells = %d, want 0", len(opt.Cells))
	}
	if opt.Outputs[0].Net != 2 {
		t.Errorf("output wired to net %d, want the primary input net 2", opt.Outputs[0].Net)
	}
	ref, _, err := optimizeRef(chainNetlist())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Hash() != ref.Hash() {
		t.Errorf("hash diverges from reference fixpoint")
	}
}

// ffLoopNetlist builds a flip-flop whose D input collapses to a
// constant through its own output (q & 0), plus a second FF in an
// unobservable self-loop.
func ffLoopNetlist() *netlist.Netlist {
	n := &netlist.Netlist{
		Const0: 0,
		Const1: 1,
		Cells: []netlist.Cell{
			// d = q & 0 — constant loop through the FF.
			{Type: netlist.And2, In: [3]netlist.NetID{4, 0, netlist.Nil}, Clk: netlist.Nil, Out: 3},
			{Type: netlist.DFF, In: [3]netlist.NetID{3, netlist.Nil, netlist.Nil}, Clk: 2, Out: 4},
			// q_dead = DFF(q_dead) — state nobody observes.
			{Type: netlist.DFF, In: [3]netlist.NetID{5, netlist.Nil, netlist.Nil}, Clk: 2, Out: 5},
		},
		Inputs:  []netlist.PortBit{{Name: "clk", Net: 2}},
		Outputs: []netlist.PortBit{{Name: "q", Net: 4}},
	}
	n.Nets = 6
	return n
}

func TestOptimizeConstantLoopFeedingFF(t *testing.T) {
	n := ffLoopNetlist()
	opt, res, err := netlist.OptimizeWS(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConstFolded != 1 {
		t.Errorf("folded = %d, want 1 (the AND against 0)", res.ConstFolded)
	}
	if res.DeadRemoved != 1 {
		t.Errorf("dead = %d, want 1 (the unobserved self-loop FF)", res.DeadRemoved)
	}
	if len(opt.Cells) != 1 || opt.Cells[0].Type != netlist.DFF {
		t.Fatalf("cells = %+v, want exactly the observable DFF", opt.Cells)
	}
	if opt.Cells[0].In[0] != opt.Const0 {
		t.Errorf("DFF D pin = %d, want const0 %d", opt.Cells[0].In[0], opt.Const0)
	}
	if err := opt.Validate(); err != nil {
		t.Errorf("optimized netlist invalid: %v", err)
	}
	ref, _, err := optimizeRef(ffLoopNetlist())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Hash() != ref.Hash() {
		t.Errorf("hash diverges from reference fixpoint")
	}
}

// TestOptimizeCSEChain checks that chained CSE + folding settles in the
// single seeded sweep: two identical AND trees whose merge exposes an
// XOR(a,a) fold behind them.
func TestOptimizeCSEChain(t *testing.T) {
	n := &netlist.Netlist{
		Const0: 0,
		Const1: 1,
		Cells: []netlist.Cell{
			{Type: netlist.And2, In: [3]netlist.NetID{2, 3, netlist.Nil}, Clk: netlist.Nil, Out: 4},
			{Type: netlist.And2, In: [3]netlist.NetID{3, 2, netlist.Nil}, Clk: netlist.Nil, Out: 5}, // commutes to the same key
			{Type: netlist.Xor2, In: [3]netlist.NetID{4, 5, netlist.Nil}, Clk: netlist.Nil, Out: 6},
		},
		Inputs:  []netlist.PortBit{{Name: "a", Net: 2}, {Name: "b", Net: 3}},
		Outputs: []netlist.PortBit{{Name: "y", Net: 6}},
	}
	n.Nets = 7
	opt, res, err := netlist.OptimizeWS(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 {
		t.Errorf("merged = %d, want 1 (commuted AND pair)", res.Merged)
	}
	// XOR(t, t) folds to const0, so y is const0 and both ANDs are dead.
	if res.ConstFolded != 1 {
		t.Errorf("folded = %d, want 1 (XOR of merged net)", res.ConstFolded)
	}
	if len(opt.Cells) != 0 {
		t.Errorf("cells = %d, want 0", len(opt.Cells))
	}
	if opt.Outputs[0].Net != opt.Const0 {
		t.Errorf("y = net %d, want const0", opt.Outputs[0].Net)
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1 (no worklist revisits on a DAG)", res.Iterations)
	}
}
