// Package cones extracts combinational logic cones from a netlist and
// computes the paper's FanInLC metric.
//
// Section 4.3 of the µComplexity paper defines FanInLC as follows:
// "Given a primary output (i.e., a signal that reaches a pipeline
// latch), we identify the set of logic gates that produces it starting
// from the preceding pipeline latch (i.e., its logic cone), and count
// all the primary inputs to the cone (i.e., signals directly coming
// from the preceding latch). We then repeat the process for all the
// primary outputs in the design, accumulating the counts."
//
// Concretely: a cone endpoint is every primary output bit, every
// flip-flop or latch data/enable input, and every RAM control/data
// input; cone leaves are primary inputs, flip-flop/latch outputs, and
// RAM read-port outputs. Constants are not leaves (they carry no
// information from a preceding latch). FanInLC is the sum over all
// endpoints of the number of distinct leaves in the endpoint's cone.
//
// The paper approximates this metric from FPGA LUT input counts (see
// internal/fpga); this package computes it exactly, and the two are
// compared in the FanInLC ablation benchmark.
//
// Cones overlap heavily (a register output typically feeds many
// endpoints), so the extraction is organized as a single forward sweep
// rather than an independent graph walk per endpoint: net depths come
// from one pass over the topological order, traversals use
// epoch-stamped visited arrays and reusable scratch buffers instead of
// per-endpoint maps, and every multi-fanout net memoizes its subcone's
// distinct leaf set so reconvergent regions are expanded once and then
// merged in O(set size) per reference.
package cones

import (
	"repro/internal/netlist"
	"repro/internal/scratch"
)

// memo caches the distinct leaf set of one multi-fanout net's
// subcone. No gate set is kept: nothing reads a cone's gate count, and
// the leaf count needs none (see traverse).
type memo struct {
	leaves []netlist.NetID
}

// analyzer holds the sweep state: immutable per-net tables computed
// once, plus epoch-stamped scratch reused across every traversal.
type analyzer struct {
	n       *netlist.Netlist
	drivers []int
	leaf    []bool
	depth   []int32
	memos   []memo
	memoIdx []int32 // per-net memo index, -1 when not memoized
	fanout  []int32

	// epoch persists across analyses of a reused workspace and never
	// resets, so stale netEpoch entries (always <= a past epoch) can
	// never collide with a fresh stamp.
	epoch    uint32
	netEpoch []uint32
	stack    []netlist.NetID
	leaves   []netlist.NetID
}

// newAnalyzer runs the one-time sweep: leaf classification, the depth
// pass over the topological order, fanout counting, and memo
// construction for every multi-fanout combinational net. The analyzer
// lives inside ws so the per-net tables, traversal scratch, and memos
// carry their capacity from one analysis to the next.
func newAnalyzer(n *netlist.Netlist, ws *Workspace) *analyzer {
	numNets := n.NumNets()
	a := &ws.a
	a.n = n
	a.drivers = n.Drivers()
	scratch.Zero(&a.leaf, numNets)
	scratch.Zero(&a.depth, numNets)
	scratch.Raw(&a.memoIdx, numNets) // fully written below
	scratch.Raw(&a.netEpoch, numNets)
	clear(a.memos[:cap(a.memos)])
	a.memos = a.memos[:0]
	for id := 0; id < numNets; id++ {
		a.memoIdx[id] = -1
		if netlist.NetID(id) == n.Const0 || netlist.NetID(id) == n.Const1 {
			continue
		}
		d := a.drivers[id]
		a.leaf[id] = d < 0 || n.Cells[d].Type.IsSequential()
	}

	order, err := n.TopoOrder()
	if err != nil {
		// A cyclic netlist has no well-defined cone structure; synth
		// validates against this. Leave depths zero and skip memos —
		// collect still terminates because visits are epoch-deduped.
		return a
	}

	// Depth pass: one forward sweep. depthOf(leaf|const) = 0;
	// depth[out] = 1 + max over inputs.
	for _, ci := range order {
		c := &n.Cells[ci]
		max := int32(0)
		for _, in := range c.Inputs() {
			if d := a.depthOf(in); d > max {
				max = d
			}
		}
		a.depth[c.Out] = max + 1
	}

	// Fanout: references to each net as a combinational-cell input or
	// as a cone endpoint root. Nets referenced more than once are the
	// reconvergence points worth memoizing.
	fanout := scratch.Zero(&a.fanout, numNets)
	ref := func(id netlist.NetID) {
		if id != netlist.Nil {
			fanout[id]++
		}
	}
	for ci := range n.Cells {
		c := &n.Cells[ci]
		if c.Type.IsSequential() {
			ref(c.In[0])
			if c.Type == netlist.Latch {
				ref(c.In[1])
			}
			continue
		}
		for _, in := range c.Inputs() {
			ref(in)
		}
	}
	for _, p := range n.Outputs {
		ref(p.Net)
	}
	for _, r := range n.RAMs {
		for _, wp := range r.WritePorts {
			ref(wp.En)
			for _, b := range wp.Addr {
				ref(b)
			}
			for _, b := range wp.Data {
				ref(b)
			}
		}
		for _, rp := range r.ReadPorts {
			for _, b := range rp.Addr {
				ref(b)
			}
		}
	}

	// Memo pass in topological order: each multi-fanout net expands
	// its subcone once, short-circuiting through the memos of deeper
	// shared nets already built.
	for _, ci := range order {
		out := n.Cells[ci].Out
		if fanout[out] < 2 {
			continue
		}
		leaves := a.traverse(out)
		a.memoIdx[out] = int32(len(a.memos))
		ml := ws.slab.Take(len(leaves))
		copy(ml, leaves)
		a.memos = append(a.memos, memo{leaves: ml})
	}
	return a
}

func (a *analyzer) depthOf(id netlist.NetID) int32 {
	if id == a.n.Const0 || id == a.n.Const1 || a.leaf[id] {
		return 0
	}
	return a.depth[id]
}

// collect returns the distinct leaf count of the cone rooted at root.
func (a *analyzer) collect(root netlist.NetID) int {
	return len(a.traverse(root))
}

// traverse walks the cone rooted at root and returns its distinct
// leaves in a scratch buffer (valid until the next traversal). The
// root's own memo is never consulted, so the memo pass can use traverse
// to build it.
//
// Merging a memo stamps only its root and its leaves, not the gates of
// its subcone. The leaf count stays exact, since leaves carry their
// own stamps, and no work is repeated: a net without a memo has fanout
// 1, so every path to it runs through its nearest memoized ancestor
// (or the root), and a gate below a merged memo is never expanded.
func (a *analyzer) traverse(root netlist.NetID) []netlist.NetID {
	a.epoch++
	epoch := a.epoch
	n := a.n
	stack := append(a.stack[:0], root)
	a.leaves = a.leaves[:0]
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == n.Const0 || id == n.Const1 || a.netEpoch[id] == epoch {
			continue
		}
		if a.leaf[id] {
			a.netEpoch[id] = epoch
			a.leaves = append(a.leaves, id)
			continue
		}
		a.netEpoch[id] = epoch
		if mi := a.memoIdx[id]; mi >= 0 && id != root {
			for _, l := range a.memos[mi].leaves {
				if a.netEpoch[l] != epoch {
					a.netEpoch[l] = epoch
					a.leaves = append(a.leaves, l)
				}
			}
			continue
		}
		d := a.drivers[id]
		if d < 0 {
			continue
		}
		for _, in := range n.Cells[d].Inputs() {
			stack = append(stack, in)
		}
	}
	a.stack = stack[:0]
	return a.leaves
}
