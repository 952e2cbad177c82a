package fpga

import (
	"repro/internal/netlist"
	"repro/internal/scratch"
)

// netInfo is the per-net covering state: the support of the would-be
// LUT rooted at the net, and whether that LUT was realized.
type netInfo struct {
	cut      []netlist.NetID
	realized bool
}

// Workspace holds the mapper's per-net tables, the merge scratch, and
// the arena cut sets are carved from, reusable across mappings. Owned
// by one goroutine at a time; nil selects fresh scratch.
type Workspace struct {
	info  []netInfo
	level []int
	cur   []netlist.NetID
	next  []netlist.NetID
	arena scratch.Arena[netlist.NetID]
}

// Reset drops the cut-set references into the arena so a retained
// workspace pins only its own chunks. Buffer capacity survives.
func (w *Workspace) Reset() {
	clear(w.info[:cap(w.info)])
	w.info = w.info[:0]
	w.arena.Reset()
}
