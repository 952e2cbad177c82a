// Package depgraph records what makes remeasurement incremental: per
// declared module, its own source hash (hdl.Design.ModuleHash) and the
// hash of its whole instantiation subtree (hdl.Design.SubtreeHash).
// Diffing a recorded graph against an edited design marks a module
// dirty exactly when its subtree hash changed, so a measurement
// session re-measures only units whose top is dirty and serves
// everything else from the previous results.
//
// The soundness argument is the one internal/measure's cache keys rest
// on: every stage of the pipeline for a top module is a pure function
// of the formatted sources of the module's transitive instantiation
// subtree plus the measurement options, and SubtreeHash is a hash of
// exactly that subtree. A module whose subtree hash is unchanged
// therefore measures bit-identically, no matter what else in the
// design was edited. A child that was deleted or renamed drops out of
// its parents' subtrees, so their hashes change and they are dirty;
// their re-measurement then fails as a from-scratch one would.
package depgraph

import "repro/internal/hdl"

// Module is one node of the graph: a module's content identity.
type Module struct {
	Name string
	// Hash is the module's own source hash (hdl.Design.ModuleHash).
	Hash string
	// Subtree is the hash of the module's transitive instantiation
	// subtree (hdl.Design.SubtreeHash).
	Subtree string
}

// Graph is the dependency graph of one measured design. It is
// immutable once built.
type Graph struct {
	// Fingerprint is the design's whole-tree fingerprint at build time
	// (a fast path for an unchanged design — diffs compare per-module
	// hashes).
	Fingerprint string
	// OptionsKey names the measurement options the design was measured
	// under; a remeasurement under different options must not reuse
	// results even when sources match.
	OptionsKey string
	Modules    []Module // sorted by name

	moduleIdx map[string]int
}

// Build records every declared module's own and subtree hash.
func Build(d *hdl.Design, optionsKey string) (*Graph, error) {
	names := d.ModuleNames()
	g := &Graph{
		Fingerprint: d.Fingerprint(),
		OptionsKey:  optionsKey,
		Modules:     make([]Module, len(names)),
		moduleIdx:   make(map[string]int, len(names)),
	}
	for i, name := range names {
		hash, err := d.ModuleHash(name)
		if err != nil {
			return nil, err
		}
		sub, err := d.SubtreeHash(name)
		if err != nil {
			return nil, err
		}
		g.Modules[i] = Module{Name: name, Hash: hash, Subtree: sub}
		g.moduleIdx[name] = i
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

// Delta is the outcome of diffing a recorded graph against an edited
// design: the edited module sets and the dirty modules of the new
// design.
type Delta struct {
	// Changed lists modules present in both whose own source hash
	// differs; Added lists modules only the new design declares;
	// Removed lists modules only the old graph knew. All sorted (by
	// construction: both module lists are in name order).
	Changed, Added, Removed []string
	// DirtyModules and CleanModules partition the new design's module
	// set: a module is dirty when it is new or its subtree hash
	// changed.
	DirtyModules, CleanModules int

	dirty map[string]bool
}

// Dirty reports whether the named module of the new design is dirty —
// i.e. whether any measurement rooted at it must be redone. Modules
// the new design does not declare report dirty (a measurement rooted
// there has no recorded counterpart).
func (d *Delta) Dirty(name string) bool {
	v, ok := d.dirty[name]
	return v || !ok
}

// Diff compares a recorded graph against a new design in one pass over
// the new design's modules. Changed, Added and Removed come from the
// own-hash compare; a module is dirty when it is new or its subtree
// hash differs from the recorded one, which covers every edit inside
// its subtree, including a deleted or renamed descendant.
func Diff(prev *Graph, next *hdl.Design) (*Delta, error) {
	nextNames := next.ModuleNames()
	d := &Delta{dirty: make(map[string]bool, len(nextNames))}
	for _, name := range nextNames {
		h, err := next.ModuleHash(name)
		if err != nil {
			return nil, err
		}
		sub, err := next.SubtreeHash(name)
		if err != nil {
			return nil, err
		}
		old, ok := prev.Module(name)
		switch {
		case !ok:
			d.Added = append(d.Added, name)
		case old.Hash != h:
			d.Changed = append(d.Changed, name)
		}
		dirty := !ok || old.Subtree != sub
		d.dirty[name] = dirty
		if dirty {
			d.DirtyModules++
		} else {
			d.CleanModules++
		}
	}
	for _, m := range prev.Modules {
		if !next.HasModule(m.Name) {
			d.Removed = append(d.Removed, m.Name)
		}
	}
	return d, nil
}
