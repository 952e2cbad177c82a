package netlist

import "repro/internal/scratch"

// Workspace holds reusable memory for the netlist kernels: the
// builder's net/cell buffers, the optimizer's union-find, adjacency,
// hash-table, worklist, and liveness arrays, and the buffers the two
// kernels' netlists live in. A workspace is owned by exactly one
// goroutine at a time (measurement sessions hand one to each pool
// worker); every kernel that accepts one re-initializes the slices it
// takes before use, so a workspace carries capacity between runs,
// never values. Passing nil where a *Workspace is accepted means a
// fresh workspace for that one call.
//
// A netlist returned under a workspace lives in its memory until the
// workspace's next run: Builder.Build's until the next NewBuilder or
// Reset, OptimizeWS's (with the driver table, topological order and
// Stats bitmap it computes later) until the next NewBuilder,
// OptimizeWS or Reset. So a build and the optimization of its netlist
// form one run, and both netlists die when the next run starts. A
// caller that keeps a netlist longer copies what it needs first.
// Under a nil workspace every netlist is independent of later calls.
type Workspace struct {
	// Builder state (taken over by NewBuilder for one build).
	bParent   []NetID
	bNamed    []bool
	bCells    []Cell
	bInputs   []PortBit
	bOutputs  []PortBit
	bRAMs     []*RAM
	bAliasLog []AliasPair
	bSeen     []int32
	bRemap    []NetID

	// Optimizer state.
	oParent    []NetID
	oRing      []int32
	oStart     []int32
	oConsumers []int32
	oFill      []int32
	oKeys      []hashKey
	oKfull     []bool
	oKout      []NetID
	oQueue     []int32
	oInQueue   []bool
	oProcessed []bool
	oRemoved   []bool
	oDriver    []int32
	oLive      []bool
	oSeenNet   []bool
	oStack     []NetID

	// The optimized netlist OptimizeWS returns: its surviving cells,
	// its RAM macro list, and its input then output ports in one
	// buffer.
	oCells []Cell
	oRAMs  []*RAM
	oPorts []PortBit

	// Raw-netlist analysis scratch: the optimizer's input is discarded
	// right after the pass, so its driver table and topological order
	// are computed here instead of being memoized into the netlist.
	// The scratch is dead once OptimizeWS returns, so the optimized
	// netlist memoizes its own tables in it (see Netlist.Drivers).
	tDrivers []int
	tState   []byte
	tOrder   []int
	tStack   []topoFrame
}

// orFresh returns ws, or a fresh workspace when ws is nil: the one
// place a nil workspace gets its meaning.
func orFresh(ws *Workspace) *Workspace {
	if ws == nil {
		return &Workspace{}
	}
	return ws
}

// Reset drops references the workspace may hold into a previous run's
// data (RAM macros, port bits) while keeping every buffer's
// capacity. The kernels re-initialize value scratch themselves, so
// Reset is about not pinning old heap objects, not about correctness
// of the next run — running a kernel on a dirty, un-Reset workspace
// produces bit-identical results.
func (w *Workspace) Reset() {
	clearFull(w.bRAMs)
	clearFull(w.bInputs)
	clearFull(w.bOutputs)
	clearFull(w.oRAMs)
	clearFull(w.oPorts)
}

// clearFull zeroes a slice over its whole capacity, so no element of a
// previous, longer use survives as a live reference.
func clearFull[T any](s []T) {
	if cap(s) > 0 {
		clear(s[:cap(s)])
	}
}

// topoFrame is one iterative-DFS frame of the topological sort (shared
// with the memoized TopoOrder path).
type topoFrame struct {
	cell int
	pin  int
}

// topoInto computes the driver table and combinational topological
// order of n into the workspace's scratch buffers, without touching
// n's memoized derived tables. The returned slices are valid until the
// workspace's next use.
func (w *Workspace) topoInto(n *Netlist) (drivers []int, order []int, err error) {
	drivers = scratch.Raw(&w.tDrivers, n.NumNets())
	for i := range drivers {
		drivers[i] = -1
	}
	for i := range n.Cells {
		drivers[n.Cells[i].Out] = i
	}
	order, stack, err := n.topoOrderInto(drivers, scratch.Zero(&w.tState, len(n.Cells)), w.tStack[:0], w.tOrder[:0])
	w.tOrder = order[:0]
	w.tStack = stack[:0]
	return drivers, order, err
}
