// Package depgraph records the dependency graph that makes
// remeasurement incremental: per measured unit, the identity DAG from
// per-module source hashes (hdl.Design.ModuleHash) through the
// resolved parameter signature (elab.ParamSignature) to the
// synthesized netlist hash (netlist.Hash). Diffing a recorded graph
// against an edited design marks the transitive dirty cone — exactly
// the modules whose measurement inputs changed — so a measurement
// session re-elaborates and re-synthesizes only dirty subtrees and
// serves everything else from the previous results and the
// signature-level persistent cache.
//
// The soundness argument is the one internal/measure's cache keys rest
// on: every stage of the pipeline for a top module is a pure function
// of the formatted sources of the module's transitive instantiation
// subtree plus the measurement options. A module whose own hash and
// whose descendants' hashes are all unchanged therefore measures
// bit-identically, no matter what else in the design was edited.
package depgraph

import (
	"sort"

	"repro/internal/hdl"
)

// Module is one node of the graph: a module's content identity and its
// instantiation edges.
type Module struct {
	Name string
	// Hash is the module's own source hash (hdl.Design.ModuleHash) —
	// the leaf level of the identity DAG.
	Hash string
	// Children are the module names this module instantiates (direct
	// edges only, sorted; limited to modules declared in the design,
	// matching hdl.Design.Instantiated).
	Children []string
}

// Unit is the recorded identity trail of one measured unit: what the
// unit's result was a function of (SubtreeHash), which design point it
// landed on (ParamSig, Params), and what came out (NetlistHash). A
// remeasurement that reproduces SubtreeHash is entitled to reuse the
// unit's whole result; ParamSig and NetlistHash pin the two
// intermediate levels so stats and verification can tell *which* level
// an edit invalidated.
type Unit struct {
	Top           string
	UseAccounting bool
	// SubtreeHash is hdl.Design.SubtreeHash(Top) at measurement time.
	SubtreeHash string
	// ParamSig is the canonical resolved parameter signature
	// (elab.ParamSignature of Top under the full resolved parameter
	// map — minimized values for accounting units, declared defaults
	// otherwise).
	ParamSig string
	// Params is the resolved top-level parameter map behind ParamSig.
	Params map[string]int64
	// NetlistHash is the optimized netlist's content hash.
	NetlistHash string
}

// Graph is the dependency graph of one measurement batch over one
// design. It is immutable once built; lookups are index-backed.
type Graph struct {
	// Fingerprint is the design's whole-tree fingerprint at build time
	// (diagnostic only — diffs compare per-module hashes).
	Fingerprint string
	// OptionsKey names the measurement options the units were measured
	// under; a remeasurement under different options must not reuse
	// unit results even when sources match.
	OptionsKey string
	Modules    []Module // sorted by name
	Units      []Unit   // in measurement order

	moduleIdx map[string]int
	unitIdx   map[unitKey]int
}

type unitKey struct {
	top  string
	acct bool
}

// Build constructs the module layer of the graph from a design: every
// declared module's source hash and instantiation edges. Units are
// appended by the measurement layer (internal/measure) as results
// arrive.
func Build(d *hdl.Design, optionsKey string) (*Graph, error) {
	names := d.ModuleNames()
	g := &Graph{
		Fingerprint: d.Fingerprint(),
		OptionsKey:  optionsKey,
		Modules:     make([]Module, 0, len(names)),
		moduleIdx:   make(map[string]int, len(names)),
	}
	for _, name := range names {
		mod, err := d.Module(name)
		if err != nil {
			return nil, err
		}
		hash, err := d.ModuleHash(name)
		if err != nil {
			return nil, err
		}
		g.moduleIdx[name] = len(g.Modules)
		g.Modules = append(g.Modules, Module{
			Name:     name,
			Hash:     hash,
			Children: d.Instantiated(mod),
		})
	}
	return g, nil
}

// Module returns the named module node.
func (g *Graph) Module(name string) (Module, bool) {
	i, ok := g.moduleIdx[name]
	if !ok {
		return Module{}, false
	}
	return g.Modules[i], true
}

// Unit returns the recorded unit for (top, useAccounting).
func (g *Graph) Unit(top string, useAccounting bool) (Unit, bool) {
	i, ok := g.unitIdx[unitKey{top, useAccounting}]
	if !ok {
		return Unit{}, false
	}
	return g.Units[i], true
}

// AddUnit appends (or replaces) a unit's identity trail. Replacement
// keyed by (Top, UseAccounting) keeps the graph canonical when a batch
// measures the same unit twice.
func (g *Graph) AddUnit(u Unit) {
	k := unitKey{u.Top, u.UseAccounting}
	if g.unitIdx == nil {
		g.unitIdx = map[unitKey]int{}
	}
	if i, ok := g.unitIdx[k]; ok {
		g.Units[i] = u
		return
	}
	g.unitIdx[k] = len(g.Units)
	g.Units = append(g.Units, u)
}

// Delta is the outcome of diffing a recorded graph against an edited
// design: the edited module sets and the transitive dirty cone over
// the new design.
type Delta struct {
	// Changed lists modules present in both whose source hash differs;
	// Added lists modules only the new design declares; Removed lists
	// modules only the old graph knew. All sorted.
	Changed, Added, Removed []string
	// DirtyModules and CleanModules partition the new design's module
	// set: a module is dirty when its own source changed (or it is
	// new) or any module in its transitive instantiation subtree is.
	DirtyModules, CleanModules int

	dirty map[string]bool
}

// Dirty reports whether the named module of the new design is inside
// the dirty cone — i.e. whether any measurement rooted at it must be
// redone. Modules the new design does not declare report dirty (a
// measurement rooted there has no recorded counterpart).
func (d *Delta) Dirty(name string) bool {
	v, ok := d.dirty[name]
	return v || !ok
}

// Diff compares the module layer of a recorded graph against a new
// design and returns the dirty cone. The cone is computed over the new
// design's edges: dirty(m) = m's own hash changed (or m is new) or any
// instantiated child is dirty. A removed module makes its former
// parents dirty automatically — removing an instantiation edits the
// parent's source, and a parent that still names the removed module
// fails elaboration downstream, which a cone cannot and should not
// mask.
func Diff(prev *Graph, next *hdl.Design) (*Delta, error) {
	nextNames := next.ModuleNames()
	d := &Delta{dirty: make(map[string]bool, len(nextNames))}

	// Own-hash layer.
	own := make(map[string]bool, len(nextNames))
	nextSet := make(map[string]bool, len(nextNames))
	for _, name := range nextNames {
		nextSet[name] = true
		h, err := next.ModuleHash(name)
		if err != nil {
			return nil, err
		}
		old, ok := prev.Module(name)
		switch {
		case !ok:
			own[name] = true
			d.Added = append(d.Added, name)
		case old.Hash != h:
			own[name] = true
			d.Changed = append(d.Changed, name)
		}
	}
	for _, m := range prev.Modules {
		if !nextSet[m.Name] {
			d.Removed = append(d.Removed, m.Name)
		}
	}
	sort.Strings(d.Removed) // Changed/Added inherit ModuleNames order

	// Transitive cone over the new design's edges, memoized. A cycle
	// back-edge contributes nothing (instantiation cycles are rejected
	// by elaboration; the cone stays deterministic either way).
	visiting := map[string]bool{}
	var walk func(name string) (bool, error)
	walk = func(name string) (bool, error) {
		if v, ok := d.dirty[name]; ok {
			return v, nil
		}
		if visiting[name] {
			return false, nil
		}
		visiting[name] = true
		defer delete(visiting, name)
		dirty := own[name]
		if !dirty {
			mod, err := next.Module(name)
			if err != nil {
				return false, err
			}
			for _, child := range next.Instantiated(mod) {
				cd, err := walk(child)
				if err != nil {
					return false, err
				}
				if cd {
					dirty = true
					break
				}
			}
		}
		d.dirty[name] = dirty
		return dirty, nil
	}
	for _, name := range nextNames {
		dirty, err := walk(name)
		if err != nil {
			return nil, err
		}
		if dirty {
			d.DirtyModules++
		} else {
			d.CleanModules++
		}
	}
	return d, nil
}
