package elab

import "fmt"

// Env is a lexical constant environment: module parameters,
// localparams, and genvar values, plus the net-name prefix introduced
// by labeled generate scopes (so a wire declared inside
// "begin : g" of iteration 2 lives under "g[2].").
//
// A scope stores its constants two ways: an optional inline single
// binding (oneName/oneVal — the genvar or loop variable of generate
// and for scopes, which is by far the most common scope shape) and a
// lazily-allocated map for everything else. The inline slot keeps the
// per-iteration scopes of loop elaboration map-free.
type Env struct {
	parent  *Env
	prefix  string // full accumulated prefix, e.g. "g[2]."
	oneName string // inline binding name; "" means unused
	oneVal  int64
	// base holds constants supplied at scope creation. NewEnv aliases
	// its argument here instead of copying — the caller hands over a
	// map it no longer writes (module parameter bindings) — while
	// Define writes go to the separate consts overlay, so the caller's
	// map is never mutated.
	base     map[string]int64
	consts   map[string]int64 // lazily allocated on first Define
	prefixes []string         // prefix chain, innermost first (see Prefixes)
}

// NewEnv returns a root environment with the given constants. The map
// is aliased, not copied: the caller must not write to it afterward.
func NewEnv(consts map[string]int64) *Env {
	e := &Env{prefixes: rootPrefixes}
	if len(consts) > 0 {
		e.base = consts
	}
	return e
}

var rootPrefixes = []string{""}

// Child returns a nested scope. extraPrefix ("g[2]." or "") extends the
// net-name prefix; consts (may be nil) adds scope-local constants such
// as the genvar value.
func (e *Env) Child(extraPrefix string, consts map[string]int64) *Env {
	child := e.ChildVar(extraPrefix, "", 0)
	if len(consts) > 0 {
		c := make(map[string]int64, len(consts))
		for k, v := range consts {
			c[k] = v
		}
		child.consts = c
	}
	return child
}

// WithVars returns e extended with the procedural integer variables
// vars (loop indices), which shadow e's constants; e itself when vars
// is empty. The scope shares vars instead of copying it, so it sees
// later writes to the map: evaluate against it, do not keep it.
func (e *Env) WithVars(vars map[string]int64) *Env {
	if len(vars) == 0 {
		return e
	}
	return &Env{parent: e, prefix: e.prefix, base: vars, prefixes: e.prefixes}
}

// ChildVar returns a nested scope binding at most one constant (name
// may be "" for none) without allocating a map — the shape of every
// generate-loop and for-loop iteration scope.
func (e *Env) ChildVar(extraPrefix, name string, val int64) *Env {
	child := &Env{parent: e, prefix: e.prefix + extraPrefix, oneName: name, oneVal: val}
	if extraPrefix == "" {
		// Same prefix as the parent: the resolution chain is unchanged
		// and can be shared (Prefixes results are read-only).
		child.prefixes = e.prefixes
	} else {
		chain := make([]string, 0, len(e.prefixes)+1)
		chain = append(chain, child.prefix)
		chain = append(chain, e.prefixes...)
		child.prefixes = chain
	}
	return child
}

// setVar rebinds the inline constant. Loop drivers reuse one iteration
// scope across iterations instead of allocating a fresh Env per trip;
// this is sound because the scope is only read (evaluated against),
// never captured, between rebinds.
func (e *Env) setVar(val int64) { e.oneVal = val }

// Define adds a constant to the innermost scope, rejecting redefinition
// within the same scope.
func (e *Env) Define(name string, v int64) error {
	if name == e.oneName && name != "" {
		return fmt.Errorf("elab: constant %q redefined in the same scope", name)
	}
	if _, ok := e.base[name]; ok {
		return fmt.Errorf("elab: constant %q redefined in the same scope", name)
	}
	if _, ok := e.consts[name]; ok {
		return fmt.Errorf("elab: constant %q redefined in the same scope", name)
	}
	if e.consts == nil {
		e.consts = make(map[string]int64, 4)
	}
	e.consts[name] = v
	return nil
}

// Lookup resolves a constant by walking scopes outward.
func (e *Env) Lookup(name string) (int64, bool) {
	for s := e; s != nil; s = s.parent {
		if s.oneName == name && name != "" {
			return s.oneVal, true
		}
		if v, ok := s.consts[name]; ok {
			return v, true
		}
		if v, ok := s.base[name]; ok {
			return v, true
		}
	}
	return 0, false
}

// Prefix returns the accumulated net-name prefix of this scope.
func (e *Env) Prefix() string { return e.prefix }

// Prefixes returns the prefix chain from innermost to outermost
// (always ending with ""), used to resolve signal names against an
// instance's net table. The chain is precomputed at scope creation
// and shared between scopes with equal prefixes; callers must not
// mutate it.
func (e *Env) Prefixes() []string {
	return e.prefixes
}
