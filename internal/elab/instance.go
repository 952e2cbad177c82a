package elab

import (
	"fmt"

	"repro/internal/hdl"
)

// Net is a concretely-sized signal of an elaborated instance.
type Net struct {
	Name   string // fully scoped name, e.g. "g[2].t"
	Width  int
	LSB    int64 // declared LSB index, for bit-position arithmetic
	Kind   hdl.NetKind
	IsPort bool
	Dir    hdl.PortDir
	Pos    hdl.Pos
}

// Mem is a concretely-sized memory array (reg [W-1:0] m [A:B]).
type Mem struct {
	Name   string
	Width  int
	Depth  int64
	MinIdx int64
	Pos    hdl.Pos
}

// ElabAssign is a continuous assignment plus the scope it appeared in.
type ElabAssign struct {
	Item *hdl.ContAssign
	Env  *Env
}

// ElabAlways is an always block plus the scope it appeared in.
type ElabAlways struct {
	Item *hdl.AlwaysBlock
	Env  *Env
}

// Child is an elaborated submodule instantiation. In report-only
// elaborations (Options.ReportOnly) Inst is nil — the subtree's report
// fragment was extracted and the tree discarded — while Name, Ports,
// and Env remain so the parent's range validation still covers every
// port expression.
type Child struct {
	Name  string // scoped instance name, e.g. "g[1].u0"
	Ports []hdl.Binding
	Env   *Env // scope the port expressions evaluate in (parent side)
	Inst  *Instance
	Pos   hdl.Pos
}

// Instance is one elaborated module instance.
type Instance struct {
	Module   *hdl.Module
	Path     string // hierarchical path from the top ("top.u0.g[1].u")
	Params   map[string]int64
	Nets     map[string]*Net
	Mems     map[string]*Mem
	IntVars  map[string]bool // integer variables (loop indices)
	Genvars  map[string]bool
	Assigns  []*ElabAssign
	Alwayses []*ElabAlways
	Children []*Child
}

// reuse empties inst to hold module m at path, keeping the storage of
// its maps and slices (a report-only elaborator builds every module of
// a probe on one instance). Slices are cleared before they are
// truncated, so nothing past their length points anywhere.
func (inst *Instance) reuse(m *hdl.Module, path string, params map[string]int64) {
	inst.Module, inst.Path, inst.Params = m, path, params
	if inst.Nets == nil {
		inst.Nets = map[string]*Net{}
	}
	clear(inst.Nets)
	clear(inst.Mems)
	clear(inst.IntVars)
	clear(inst.Genvars)
	clear(inst.Assigns)
	clear(inst.Alwayses)
	clear(inst.Children)
	inst.Assigns, inst.Alwayses, inst.Children = inst.Assigns[:0], inst.Alwayses[:0], inst.Children[:0]
}

// ResolveNet finds the net visible as name from scope env: the
// innermost generate-scope prefix that declares it wins.
func (inst *Instance) ResolveNet(name string, env *Env) (*Net, bool) {
	for _, p := range env.Prefixes() {
		if n, ok := inst.Nets[p+name]; ok {
			return n, true
		}
	}
	return nil, false
}

// ResolveMem finds the memory visible as name from scope env.
func (inst *Instance) ResolveMem(name string, env *Env) (*Mem, bool) {
	for _, p := range env.Prefixes() {
		if m, ok := inst.Mems[p+name]; ok {
			return m, true
		}
	}
	return nil, false
}

// IsIntVar reports whether name is an integer loop variable.
func (inst *Instance) IsIntVar(name string) bool { return inst.IntVars[name] }

// PortNets returns the nets of the instance's ports, in declaration
// order.
func (inst *Instance) PortNets() []*Net {
	out := make([]*Net, 0, len(inst.Module.Ports))
	for _, p := range inst.Module.Ports {
		if n, ok := inst.Nets[p.Name]; ok {
			out = append(out, n)
		}
	}
	return out
}

// CountInstances returns the total number of instances in the subtree
// rooted at inst (including itself).
func (inst *Instance) CountInstances() int {
	n := 1
	for _, c := range inst.Children {
		n += c.Inst.CountInstances()
	}
	return n
}

// String returns a short description for diagnostics.
func (inst *Instance) String() string {
	return fmt.Sprintf("%s(%s)", inst.Path, inst.Module.Name)
}
