package synth

import (
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/netlist"
	"repro/internal/scratch"
)

// Workspace holds reusable memory for lowering+optimization runs: the
// netlist builder and optimizer buffers (which the run's netlists live
// in until the next run, see Result), the signal-bits table, a NetID
// arena the per-signal bit slices are carved from, free lists of the
// procedural branch-state tables, and the lowering templates
// (template.go). A workspace is owned by one
// goroutine at a time; LowerOptions.Workspace threads it through
// SynthesizeInstance, and every lowering runs on one (a nil option
// means a fresh workspace).
//
// Each lowering starts from empty per-run state, but the templates
// live until Reset, so a batch of lowerings on one workspace records
// each (module, parameters, dedup flag, port pattern) once and stamps
// it everywhere after. Templates are keyed by module name, which names
// one subtree only within one design: between Resets a workspace
// lowers instances of one design. A lowering that finds a module name
// bound to a different parsed module than the templates were recorded
// with drops them all first, so breaking that contract costs speed,
// never correctness. Either way the netlists are bit-identical to a
// fresh workspace's; only LowerStats.Stamped, which counts replays,
// can be higher on a reused one.
type Workspace struct {
	// NL carries the builder and optimizer scratch.
	NL netlist.Workspace

	sigs map[sigRef][]netlist.NetID
	rams map[ramKey]*ramBuild
	// tmpl and mods outlive a lowering: tmpl holds the recorded
	// templates, mods the module each name meant when they were
	// recorded.
	tmpl    map[string]*template
	mods    map[string]*hdl.Module
	arena   scratch.Arena[netlist.NetID]
	ints    scratch.Arena[int]
	tgts    scratch.Arena[procTarget]
	ramKeys []ramKey
	// bitsMaps and intMaps are free lists of the procedural-state
	// tables an always block's lowering takes for its root state and
	// for each if/case arm (procState.clone); a merge hands both arms'
	// tables back, cleared.
	bitsMaps []map[string][]netlist.NetID
	intMaps  []map[string]int64
	// keys is a merge's sorted signal-name scratch.
	keys []string
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
		mods:  map[string]*hdl.Module{},
		names: map[string]string{},
	}
}

// Reset ends a batch: the templates are dropped along with every
// per-run table (so a retained workspace pins nothing of the designs
// it lowered), the arenas are rewound, and the netlist buffers keep
// their capacity.
func (w *Workspace) Reset() {
	w.startRun()
	clear(w.tmpl)
	clear(w.mods)
}

// startRun clears one lowering's state — the signal and RAM tables,
// the arenas and the netlist buffers — and keeps the templates.
func (w *Workspace) startRun() {
	w.NL.Reset()
	clear(w.sigs)
	clear(w.rams)
	w.arena.Reset()
	w.ints.Reset()
	w.tgts.Reset()
	clear(w.ramKeys[:cap(w.ramKeys)])
	w.ramKeys = w.ramKeys[:0]
	clear(w.keys[:cap(w.keys)])
	w.keys = w.keys[:0]
}

// bitsMap returns an empty signal→bits table from the free list.
func (w *Workspace) bitsMap() map[string][]netlist.NetID {
	if n := len(w.bitsMaps); n > 0 {
		m := w.bitsMaps[n-1]
		w.bitsMaps = w.bitsMaps[:n-1]
		return m
	}
	return map[string][]netlist.NetID{}
}

// intMap returns an empty integer-variable table from the free list.
func (w *Workspace) intMap() map[string]int64 {
	if n := len(w.intMaps); n > 0 {
		m := w.intMaps[n-1]
		w.intMaps = w.intMaps[:n-1]
		return m
	}
	return map[string]int64{}
}

// adoptDesign checks that every module name in top's tree means the
// module it meant when the templates were recorded, dropping the
// templates when one does not, and records the names it has not seen.
func (w *Workspace) adoptDesign(top *elab.Instance) {
	if w.rebound(top) {
		clear(w.tmpl)
		clear(w.mods)
		w.rebound(top)
	}
}

// rebound records the module of each instance in inst's tree under its
// name, stopping at the first name already bound to another module.
func (w *Workspace) rebound(inst *elab.Instance) bool {
	if m, ok := w.mods[inst.Module.Name]; !ok {
		w.mods[inst.Module.Name] = inst.Module
	} else if m != inst.Module {
		return true
	}
	for _, c := range inst.Children {
		if w.rebound(c.Inst) {
			return true
		}
	}
	return false
}
