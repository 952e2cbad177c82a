package synth

import (
	"repro/internal/elab"
	"repro/internal/netlist"
	"repro/internal/scratch"
)

// Workspace holds reusable scratch for one lowering+optimization run:
// the netlist builder and optimizer buffers, the signal-bits table, and
// a NetID arena the per-signal bit slices are carved from. A workspace
// is owned by one goroutine at a time; LowerOptions.Workspace threads
// it through SynthesizeInstance, and every lowering runs on one (a nil
// option means a fresh workspace). A reused workspace carries capacity
// between runs, never values: its results are bit-identical to a
// fresh one's.
type Workspace struct {
	// NL carries the builder and optimizer scratch.
	NL netlist.Workspace

	sigs    map[sigRef][]netlist.NetID
	rams    map[ramKey]*ramBuild
	tmpl    map[string]*template
	arena   scratch.Arena[netlist.NetID]
	ints    scratch.Arena[int]
	tgts    scratch.Arena[procTarget]
	ramKeys []ramKey
	// names interns port-bit names ("q[3]"), which recur identically
	// across the thousands of lowerings a measurement session performs.
	// Deliberately NOT cleared by Reset: interned strings are immutable
	// and design-independent, so reuse across runs is always safe.
	names map[string]string
}

// sigRef keys one declared signal of one elaborated instance.
type sigRef struct {
	inst *elab.Instance
	name string
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		sigs:  map[sigRef][]netlist.NetID{},
		rams:  map[ramKey]*ramBuild{},
		tmpl:  map[string]*template{},
		names: map[string]string{},
	}
}

// Reset prepares the workspace for the next run: the maps are cleared
// (dropping references into the previous run's instance tree and
// templates, so a retained workspace pins nothing), the arena is
// rewound, and the netlist buffers keep their capacity.
func (w *Workspace) Reset() {
	w.NL.Reset()
	clear(w.sigs)
	clear(w.rams)
	clear(w.tmpl)
	w.arena.Reset()
	w.ints.Reset()
	w.tgts.Reset()
	clear(w.ramKeys[:cap(w.ramKeys)])
	w.ramKeys = w.ramKeys[:0]
}
