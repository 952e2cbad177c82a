package elab

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/hdl"
	"repro/internal/scratch"
)

// Elaboration limits: the trip count of one generate/procedural for
// loop and the total instance count.
const (
	maxLoopIterations = 4096
	maxInstances      = 100000
)

// Options selects elaboration modes.
type Options struct {
	// Cache, when non-nil, memoizes elaborated subtrees across calls
	// within one measurement session: a submodule whose resolved
	// parameter binding (and, for full trees, hierarchical path) was
	// already elaborated is reused instead of rebuilt, so elaborating a
	// nearby parameter point costs proportional to what the changed
	// parameter actually touches. Results are bit-identical to uncached
	// elaboration. The cache must not be shared across designs.
	Cache *Cache
	// ReportOnly computes just the construct Report (generate-loop trip
	// counts, branch polarities, memory shapes, behavioral signatures)
	// without retaining instance trees: ElaborateOpts returns a nil
	// *Instance. Success/failure and the Report are bit-identical to a
	// full elaboration — every declaration, range check, and constant
	// evaluation still runs — but subtrees are discarded as soon as
	// their fragment is extracted (and, with a Cache, skipped entirely
	// on repeat signatures). This is the probe mode of the accounting
	// search's scaling rule.
	ReportOnly bool
}

type elaborator struct {
	design *hdl.Design
	opts   Options
	// report is the fragment of the subtree currently being elaborated;
	// elaborateSubtree swaps in a fresh one per module instance so the
	// fragment can be memoized, then merges it into the enclosing one.
	report    *Report
	instCount int
	stack     []string // module names being elaborated, for cycle detection
	// stackBuf backs stack for typical hierarchy depths so pushing the
	// first module doesn't heap-allocate; stack spills past it normally.
	stackBuf [16]string
	// prefBuf is scratch for building generate-scope prefixes
	// ("g[2]."). Loop drivers rebuild it from scratch before every use,
	// so nested loops clobbering it is harmless.
	prefBuf []byte
	cache   *Cache
	// usedPaths guards full-tree reuse: a hierarchical path may only be
	// served from (or stored into) the cache once per elaboration, so a
	// design that repeats an instance name still gets distinct Instance
	// objects, exactly as uncached elaboration builds them.
	usedPaths map[string]bool
	// pending queues the child instances whose stubs elaborateInstance
	// appended; each module elaborates its own span of the queue, in
	// item order, once its own items and range checks have passed.
	pending []pendingChild
	// pendingBuf backs pending for typical designs, as stackBuf does
	// stack.
	pendingBuf [16]pendingChild
	// vars holds the procedural integer variables of the always block
	// being signed (loop indices), cleared per block.
	vars map[string]int64
	// scratch, set on report-only elaborators only, is the one Instance
	// every module of a probe is built on (see probes).
	scratch *Instance
	// Chunked allocators for the per-item structs built in bulk.
	netA bump[Net]
	asgA bump[ElabAssign]
	alwA bump[ElabAlways]
	chA  bump[Child]
	// Report-only generate-loop scopes (see loopScope): the scopes,
	// their prefix chains, the prefix being built, and the interned
	// prefix strings.
	envA     bump[Env]
	chainA   scratch.Arena[string]
	fullBuf  []byte
	prefixes map[string]string
}

// pendingChild is a child instance whose parameters and port names
// are checked and whose stub is in its parent's Children, but whose
// subtree is not elaborated yet.
type pendingChild struct {
	mod    *hdl.Module
	path   string
	params map[string]int64
	ch     *Child // the stub; a full elaboration sets its Inst
}

// probes pools report-only elaborators. Children elaborate only after
// their parent's own checks, so by the time a report-only module's
// first child starts, the module's nets, assigns, always blocks and
// child stubs are dead: every module of a probe is built on the
// elaborator's one scratch Instance, and the bump chunks are rewound
// per module. A probe then allocates what outlives it (report
// fragments, resolved parameters, cache keys) and its scopes.
var probes = sync.Pool{New: func() any { return &elaborator{scratch: &Instance{}} }}

// bump is a chunked allocator for the small structs an elaboration
// creates in bulk (nets, assigns, always blocks, child links). The
// objects escape into Instance trees that live as long as the
// elaboration's output, so handing out pointers into shared chunks
// trades one heap allocation per object for one per 256. Only a
// report-only elaborator rewinds its chunk, once the objects handed out
// from it are dead.
type bump[T any] struct {
	chunk []T
	used  int // objects handed out from chunk
}

func (b *bump[T]) new() *T {
	if b.used == len(b.chunk) {
		// Start small: most elaborations (per-probe module stamps) need
		// only a handful of objects, so a large fixed chunk would waste
		// more than individual allocation saves. Double up to a cap so
		// big designs still amortize to one allocation per 256 objects.
		b.chunk = make([]T, min(max(2*len(b.chunk), 8), 256))
		b.used = 0
	}
	p := &b.chunk[b.used]
	b.used++
	return p
}

// rewind hands the current chunk out again from its start.
func (b *bump[T]) rewind() { b.used = 0 }

// drop zeroes the current chunk, so a pooled elaborator keeps no
// pointer into the design it last elaborated, and rewinds it.
func (b *bump[T]) drop() {
	clear(b.chunk)
	b.used = 0
}

// ElaborateOpts builds the elaborated instance tree of module top with
// the given parameter overrides (nil for defaults) and returns it
// together with the construct report used by the scaling rule. In
// report-only mode (Options.ReportOnly) the returned Instance is nil.
func ElaborateOpts(design *hdl.Design, top string, overrides map[string]int64, opts Options) (*Instance, *Report, error) {
	m, err := design.Module(top)
	if err != nil {
		return nil, nil, err
	}
	params, err := ResolveParams(m, overrides)
	if err != nil {
		return nil, nil, err
	}
	var sig string
	if opts.Cache != nil {
		sig = ParamSignature(top, params)
		if opts.ReportOnly {
			if e, ok := opts.Cache.lookupReport(sig); ok {
				return nil, e.frag, nil
			}
		} else if e, ok := opts.Cache.lookupTree(top, sig); ok {
			return e.inst, e.frag, nil
		}
	}
	var el *elaborator
	if opts.ReportOnly {
		el = probes.Get().(*elaborator)
		defer el.release()
	} else {
		el = &elaborator{}
		if opts.Cache != nil {
			el.usedPaths = map[string]bool{top: true}
		}
	}
	el.design, el.opts, el.cache, el.report = design, opts, opts.Cache, NewReport()
	el.stack = el.stackBuf[:0]
	if el.pending == nil {
		el.pending = el.pendingBuf[:0]
	}
	inst, frag, count, err := el.elaborateSubtree(m, top, params)
	if err != nil {
		return nil, nil, err
	}
	if el.cache != nil {
		if opts.ReportOnly {
			el.cache.storeReport(sig, frag, count)
		} else {
			el.cache.storeTree(top, sig, inst, frag, count)
		}
	}
	if opts.ReportOnly {
		inst = nil
	}
	return inst, frag, nil
}

// release returns a report-only elaborator to the pool, keeping its
// scratch storage but no reference to the design, the cache or the
// report it worked on, so the pool never pins a retired design.
func (el *elaborator) release() {
	el.design, el.opts, el.cache, el.report = nil, Options{}, nil, nil
	el.instCount = 0
	clear(el.stackBuf[:])
	el.stack = nil
	clear(el.pending[:cap(el.pending)])
	el.pending = el.pending[:0]
	clear(el.vars)
	el.scratch.reuse(nil, "", nil)
	el.netA.drop()
	el.asgA.drop()
	el.alwA.drop()
	el.chA.drop()
	el.envA.drop()
	el.chainA.Reset()
	probes.Put(el)
}

// elaborateSubtree elaborates module m at path into a fresh report
// fragment, merges the fragment into the enclosing report, and returns
// it together with the subtree's instance count so both can be
// memoized by the session cache. Without a cache there is nothing to
// memoize, so the subtree records straight into the enclosing report
// — the uncached path pays no fragment bookkeeping.
func (el *elaborator) elaborateSubtree(m *hdl.Module, path string, params map[string]int64) (*Instance, *Report, int, error) {
	if el.cache == nil {
		count0 := el.instCount
		inst, err := el.elaborateModule(m, path, params)
		if err != nil {
			return nil, nil, 0, err
		}
		return inst, el.report, el.instCount - count0, nil
	}
	outer := el.report
	frag := NewReport()
	el.report = frag
	count0 := el.instCount
	inst, err := el.elaborateModule(m, path, params)
	el.report = outer
	if err != nil {
		return nil, nil, 0, err
	}
	outer.mergeFrom(frag)
	return inst, frag, el.instCount - count0, nil
}

// reuseInstances accounts for the instances of a memoized subtree
// against the global limit, exactly as elaborating it fresh would.
func (el *elaborator) reuseInstances(count int, path string) error {
	el.instCount += count
	if el.instCount > maxInstances {
		return fmt.Errorf("elab: instance limit %d exceeded at %s", maxInstances, path)
	}
	return nil
}

func (el *elaborator) elaborateModule(m *hdl.Module, path string, params map[string]int64) (*Instance, error) {
	for _, name := range el.stack {
		if name == m.Name {
			return nil, fmt.Errorf("elab: recursive instantiation of module %q (%v)", m.Name, el.stack)
		}
	}
	el.stack = append(el.stack, m.Name)
	defer func() { el.stack = el.stack[:len(el.stack)-1] }()

	el.instCount++
	if el.instCount > maxInstances {
		return nil, fmt.Errorf("elab: instance limit %d exceeded at %s", maxInstances, path)
	}

	inst := el.newInstance(m, path, params)
	env := NewEnv(params)

	// Ports become nets.
	for _, p := range m.Ports {
		w, lsb, err := el.evalRange(p.Range, env, p.Pos)
		if err != nil {
			return nil, &portError{path: path, port: p.Name, err: err}
		}
		if _, dup := inst.Nets[p.Name]; dup {
			return nil, fmt.Errorf("elab: duplicate port %s.%s", path, p.Name)
		}
		kind := hdl.KindWire
		if p.IsReg {
			kind = hdl.KindReg
		}
		n := el.netA.new()
		*n = Net{Name: p.Name, Width: w, LSB: lsb, Kind: kind, IsPort: true, Dir: p.Dir, Pos: p.Pos}
		inst.Nets[p.Name] = n
	}

	// The module's own items and range checks run before any child
	// subtree, so a parameter point the module itself rejects — the
	// usual failing probe of the accounting search — elaborates none.
	mark := len(el.pending)
	if err := el.elaborateItems(inst, m.Items, env); err != nil {
		return nil, err
	}
	if err := el.validateRanges(inst); err != nil {
		return nil, err
	}
	for _, ab := range inst.Alwayses {
		clear(el.vars)
		el.signStmt(inst, ab.Item.Body, ab.Env)
	}
	for i, end := mark, len(el.pending); i < end; i++ {
		if err := el.elaborateChild(el.pending[i]); err != nil {
			return nil, err
		}
	}
	el.pending = el.pending[:mark]
	return inst, nil
}

// newInstance returns the empty instance module m is elaborated into.
// A full elaboration pre-sizes Nets and Children from an exact count of
// the directly-declared items, so small leaf modules get single-bucket
// maps and no append growth (generate-stamped extras beyond the count
// amortize normally); Mems, IntVars and Genvars allocate lazily on
// first insert, as most instances have none of the three. A report-only
// elaboration reuses its scratch instance and rewinds its bump chunks:
// the previous module's items are dead once its children start.
func (el *elaborator) newInstance(m *hdl.Module, path string, params map[string]int64) *Instance {
	if inst := el.scratch; inst != nil {
		inst.reuse(m, path, params)
		el.netA.rewind()
		el.asgA.rewind()
		el.alwA.rewind()
		el.chA.rewind()
		el.envA.rewind()
		el.chainA.Reset()
		return inst
	}
	nChild, nDecl := 0, 0
	for _, it := range m.Items {
		switch d := it.(type) {
		case *hdl.Instance:
			nChild++
		case *hdl.NetDecl:
			nDecl += len(d.Names)
		}
	}
	inst := &Instance{
		Module: m,
		Path:   path,
		Params: params,
		Nets:   make(map[string]*Net, len(m.Ports)+nDecl),
	}
	if nChild > 0 {
		inst.Children = make([]*Child, 0, nChild)
	}
	return inst
}

// evalRange returns (width, lsb) for a range (nil = scalar 1-bit).
func (el *elaborator) evalRange(r *hdl.Range, env *Env, pos hdl.Pos) (int, int64, error) {
	if r == nil {
		return 1, 0, nil
	}
	msb, err := Eval(r.MSB, env)
	if err != nil {
		return 0, 0, err
	}
	lsb, err := Eval(r.LSB, env)
	if err != nil {
		return 0, 0, err
	}
	if msb < lsb {
		return 0, 0, &rangeError{pos: pos, msb: msb, lsb: lsb}
	}
	w := msb - lsb + 1
	if w > 4096 {
		return 0, 0, &rangeError{pos: pos, msb: msb, lsb: lsb, tooWide: true}
	}
	return int(w), lsb, nil
}

func (el *elaborator) elaborateItems(inst *Instance, items []hdl.Item, env *Env) error {
	for _, it := range items {
		if err := el.elaborateItem(inst, it, env); err != nil {
			return err
		}
	}
	return nil
}

func (el *elaborator) elaborateItem(inst *Instance, it hdl.Item, env *Env) error {
	switch v := it.(type) {
	case *hdl.ParamDecl:
		val, err := Eval(v.Value, env)
		if err != nil {
			return fmt.Errorf("elab: %s %s in %s: %w", kindWord(v), v.Name, inst.Path, err)
		}
		return env.Define(v.Name, val)

	case *hdl.NetDecl:
		switch v.Kind {
		case hdl.KindGenvar:
			if inst.Genvars == nil {
				inst.Genvars = map[string]bool{}
			}
			for _, n := range v.Names {
				inst.Genvars[n] = true
			}
			return nil
		case hdl.KindInteger:
			if inst.IntVars == nil {
				inst.IntVars = map[string]bool{}
			}
			for _, n := range v.Names {
				inst.IntVars[n] = true
			}
			return nil
		}
		w, lsb, err := el.evalRange(v.Range, env, v.Pos)
		if err != nil {
			return fmt.Errorf("elab: declaration in %s: %w", inst.Path, err)
		}
		if v.ArrayRange != nil {
			a, err := Eval(v.ArrayRange.MSB, env)
			if err != nil {
				return err
			}
			b, err := Eval(v.ArrayRange.LSB, env)
			if err != nil {
				return err
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo < 0 {
				return fmt.Errorf("elab: %s: memory %s has negative bound [%d:%d]", v.Pos, v.Names[0], a, b)
			}
			depth := hi - lo + 1
			if depth > 1<<20 {
				return fmt.Errorf("elab: %s: memory %s too deep (%d)", v.Pos, v.Names[0], depth)
			}
			name := env.Prefix() + v.Names[0]
			if _, dup := inst.Mems[name]; dup {
				return fmt.Errorf("elab: duplicate memory %s in %s", name, inst.Path)
			}
			el.report.recordMem(v.Pos, depth)
			if inst.Mems == nil {
				inst.Mems = map[string]*Mem{}
			}
			inst.Mems[name] = &Mem{Name: name, Width: w, Depth: depth, MinIdx: lo, Pos: v.Pos}
			return nil
		}
		for _, n := range v.Names {
			full := env.Prefix() + n
			if _, dup := inst.Nets[full]; dup {
				return fmt.Errorf("elab: duplicate net %s in %s", full, inst.Path)
			}
			nn := el.netA.new()
			*nn = Net{Name: full, Width: w, LSB: lsb, Kind: v.Kind, Pos: v.Pos}
			inst.Nets[full] = nn
		}
		return nil

	case *hdl.ContAssign:
		a := el.asgA.new()
		*a = ElabAssign{Item: v, Env: env}
		inst.Assigns = append(inst.Assigns, a)
		return nil

	case *hdl.AlwaysBlock:
		ab := el.alwA.new()
		*ab = ElabAlways{Item: v, Env: env}
		inst.Alwayses = append(inst.Alwayses, ab)
		// The body is signed (constant conditionals, loop trip counts)
		// once the module's range checks pass.
		return nil

	case *hdl.Instance:
		return el.elaborateInstance(inst, v, env)

	case *hdl.GenFor:
		return el.elaborateGenFor(inst, v, env)

	case *hdl.GenIf:
		return el.elaborateGenIf(inst, v, env)
	}
	return fmt.Errorf("elab: unsupported item %T in %s", it, inst.Path)
}

func kindWord(p *hdl.ParamDecl) string {
	if p.IsLocal {
		return "localparam"
	}
	return "parameter"
}

func (el *elaborator) elaborateInstance(parent *Instance, v *hdl.Instance, env *Env) error {
	child, err := el.design.Module(v.ModuleName)
	if err != nil {
		return fmt.Errorf("elab: instance %s.%s: %w", parent.Path, v.Name, err)
	}
	// Resolve child parameters: defaults (left to right, in the child's
	// own growing env) overridden by explicit bindings evaluated in the
	// parent scope. Declared-name checks are linear scans — parameter
	// and port lists are short, and the maps they replace dominated this
	// function's allocation profile.
	var overrides map[string]int64
	if len(v.Params) > 0 {
		overrides = make(map[string]int64, len(v.Params))
	}
	for _, b := range v.Params {
		declared := false
		for _, p := range child.Params {
			if p.Name == b.Name {
				declared = true
				break
			}
		}
		if !declared {
			return fmt.Errorf("elab: %s: module %s has no parameter %q", b.Pos, child.Name, b.Name)
		}
		if b.Value == nil {
			return fmt.Errorf("elab: %s: parameter binding %q has no value", b.Pos, b.Name)
		}
		val, err := Eval(b.Value, env)
		if err != nil {
			return fmt.Errorf("elab: parameter %s of %s.%s: %w", b.Name, parent.Path, v.Name, err)
		}
		overrides[b.Name] = val
	}
	params, err := ResolveParams(child, overrides)
	if err != nil {
		return err
	}
	// Check port binding names.
	for _, b := range v.Ports {
		found := false
		for _, p := range child.Ports {
			if p.Name == b.Name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("elab: %s: module %s has no port %q", b.Pos, child.Name, b.Name)
		}
	}
	name := env.Prefix() + v.Name
	ch := el.chA.new()
	*ch = Child{Name: name, Ports: v.Ports, Env: env, Pos: v.Pos}
	parent.Children = append(parent.Children, ch)
	el.pending = append(el.pending, pendingChild{mod: child, path: parent.Path + "." + name, params: params, ch: ch})
	return nil
}

// elaborateChild elaborates the subtree of a queued child instance, or
// serves it from the session cache. The lookup happens here, not when
// the stub is queued, so a sibling with the same signature finds the
// subtree its predecessor just stored.
func (el *elaborator) elaborateChild(p pendingChild) error {
	// Session-cache reuse. Bypassed when the child module is already on
	// the elaboration stack: a memoized fragment from a non-recursive
	// context must not mask the recursive-instantiation error a fresh
	// elaboration would raise here.
	var sig string
	cacheable := el.cache != nil
	if cacheable {
		for _, mod := range el.stack {
			if mod == p.mod.Name {
				cacheable = false
				break
			}
		}
	}
	if cacheable {
		sig = ParamSignature(p.mod.Name, p.params)
		if el.opts.ReportOnly {
			if e, ok := el.cache.lookupReport(sig); ok {
				el.report.mergeFrom(e.frag)
				return el.reuseInstances(e.count, p.path)
			}
		} else if el.usedPaths[p.path] {
			// A repeated hierarchical path must stay a distinct tree.
			cacheable = false
		} else {
			el.usedPaths[p.path] = true
			if e, ok := el.cache.lookupTree(p.path, sig); ok {
				el.report.mergeFrom(e.frag)
				p.ch.Inst = e.inst
				return el.reuseInstances(e.count, p.path)
			}
		}
	}
	if !cacheable {
		// Nothing will be stored (no cache, a recursion-stack bypass, or
		// a repeated path), so skip the fragment bookkeeping and record
		// straight into the enclosing report.
		inst, err := el.elaborateModule(p.mod, p.path, p.params)
		if err != nil {
			return err
		}
		if !el.opts.ReportOnly {
			p.ch.Inst = inst
		}
		return nil
	}
	inst, frag, count, err := el.elaborateSubtree(p.mod, p.path, p.params)
	if err != nil {
		return err
	}
	if el.opts.ReportOnly {
		// Probe mode: the subtree's fragment is what mattered; the
		// stub keeps a nil Inst.
		el.cache.storeReport(sig, frag, count)
		return nil
	}
	el.cache.storeTree(p.path, sig, inst, frag, count)
	p.ch.Inst = inst
	return nil
}

func (el *elaborator) elaborateGenFor(inst *Instance, v *hdl.GenFor, env *Env) error {
	if !inst.Genvars[v.Var] {
		return fmt.Errorf("elab: %s: generate loop variable %q is not a declared genvar", v.Pos, v.Var)
	}
	val, err := Eval(v.Init, env)
	if err != nil {
		return fmt.Errorf("elab: generate for init in %s: %w", inst.Path, err)
	}
	label := v.Label
	trips := int64(0)
	// One map-free iteration scope is reused across trips for the
	// condition/step evaluations (they never capture it); each body gets
	// its own scope since its prefix differs and items retain it.
	iter := env.ChildVar("", v.Var, val)
	pref := el.prefBuf
	for {
		iter.setVar(val)
		cond, err := Eval(v.Cond, iter)
		if err != nil {
			return fmt.Errorf("elab: generate for condition in %s: %w", inst.Path, err)
		}
		if cond == 0 {
			break
		}
		trips++
		if trips > maxLoopIterations {
			return fmt.Errorf("elab: %s: generate loop exceeds %d iterations", v.Pos, maxLoopIterations)
		}
		// Rebuilt from parts every trip (not hoisted) so a nested
		// generate loop clobbering the shared prefix scratch is harmless.
		if label != "" {
			pref = append(pref[:0], label...)
		} else {
			pref = append(pref[:0], "_gf"...)
			pref = strconv.AppendInt(pref, int64(v.Pos.Line), 10)
			pref = append(pref, '_')
			pref = strconv.AppendInt(pref, int64(v.Pos.Col), 10)
		}
		pref = append(pref, '[')
		pref = strconv.AppendInt(pref, val, 10)
		pref = append(pref, ']', '.')
		bodyEnv := el.loopScope(env, pref, v.Var, val)
		if err := el.elaborateItems(inst, v.Body, bodyEnv); err != nil {
			return err
		}
		next, err := Eval(v.Step, iter)
		if err != nil {
			return fmt.Errorf("elab: generate for step in %s: %w", inst.Path, err)
		}
		if next == val {
			return fmt.Errorf("elab: %s: generate loop does not advance (%s stuck at %d)", v.Pos, v.Var, val)
		}
		val = next
	}
	el.prefBuf = pref
	el.report.recordLoop("genfor", v.Pos, trips)
	return nil
}

// loopScope returns the body scope of one generate-loop trip: its
// prefix extends env's by pref, and name is bound to val. A full
// elaboration keeps its scopes in the Instance tree, so it allocates
// them (Env.ChildVar). A report-only elaborator takes the scope and
// its prefix chain from the chunks it rewinds per module: a probe's
// scopes die with their module's items, before its first child
// starts. The prefix string is interned on the elaborator, so a probe
// stepping through the same generate loops as the last one allocates
// no scope at all.
func (el *elaborator) loopScope(env *Env, pref []byte, name string, val int64) *Env {
	if el.scratch == nil {
		return env.ChildVar(string(pref), name, val)
	}
	full := append(append(el.fullBuf[:0], env.prefix...), pref...)
	el.fullBuf = full
	prefix, ok := el.prefixes[string(full)]
	if !ok {
		if el.prefixes == nil || len(el.prefixes) >= maxInternedPrefixes {
			el.prefixes = map[string]string{}
		}
		prefix = string(full)
		el.prefixes[prefix] = prefix
	}
	chain := el.chainA.Take(len(env.prefixes) + 1)
	chain[0] = prefix
	copy(chain[1:], env.prefixes)
	e := el.envA.new()
	*e = Env{parent: env, prefix: prefix, oneName: name, oneVal: val, prefixes: chain}
	return e
}

// maxInternedPrefixes bounds a pooled probe elaborator's prefix
// table: past it the table starts over.
const maxInternedPrefixes = 1 << 12

func (el *elaborator) elaborateGenIf(inst *Instance, v *hdl.GenIf, env *Env) error {
	cond, err := Eval(v.Cond, env)
	if err != nil {
		return fmt.Errorf("elab: generate if condition in %s: %w", inst.Path, err)
	}
	if cond != 0 {
		el.report.recordBranch("genif", v.Pos, "then")
		branchEnv := env
		if v.ThenLabel != "" {
			branchEnv = env.Child(v.ThenLabel+".", nil)
		}
		return el.elaborateItems(inst, v.Then, branchEnv)
	}
	el.report.recordBranch("genif", v.Pos, "else")
	if len(v.Else) == 0 {
		return nil
	}
	branchEnv := env
	if v.ElseLabel != "" {
		branchEnv = env.Child(v.ElseLabel+".", nil)
	}
	return el.elaborateItems(inst, v.Else, branchEnv)
}

// signStmt walks a behavioral statement recording the construct
// signature: which branch constant conditionals take and whether loops
// run. Signal-dependent conditionals are recorded as NonConst and both
// branches are walked. A procedural for loop runs by RunFor, the rule
// synthesis unrolls it by: its body is walked once per trip with the
// loop variables (el.vars) in scope, so an inner loop bounded by an
// outer one's variable is signed like any constant loop.
func (el *elaborator) signStmt(inst *Instance, s hdl.Stmt, env *Env) {
	switch v := s.(type) {
	case *hdl.Block:
		for _, sub := range v.Stmts {
			el.signStmt(inst, sub, env)
		}
	case *hdl.If:
		if c, err := Eval(v.Cond, env.WithVars(el.vars)); err == nil {
			if c != 0 {
				el.report.recordBranch("if", v.Pos, "then")
				el.signStmt(inst, v.Then, env)
				return
			}
			el.report.recordBranch("if", v.Pos, "else")
			if v.Else != nil {
				el.signStmt(inst, v.Else, env)
			}
			return
		}
		el.report.recordNonConst("if", v.Pos)
		el.signStmt(inst, v.Then, env)
		if v.Else != nil {
			el.signStmt(inst, v.Else, env)
		}
	case *hdl.Case:
		scope := env.WithVars(el.vars)
		if subj, err := Eval(v.Subject, scope); err == nil {
			// Constant subject: find the matching arm (labels must be
			// constant to match).
			armName := "default"
			var body hdl.Stmt
			for i, item := range v.Items {
				if item.Exprs == nil {
					if body == nil {
						body = item.Body
					}
					continue
				}
				for _, le := range item.Exprs {
					lv, lerr := Eval(le, scope)
					if lerr == nil && lv == subj {
						armName = fmt.Sprintf("arm%d", i)
						body = item.Body
						break
					}
				}
				if armName != "default" {
					break
				}
			}
			el.report.recordBranch("case", v.Pos, armName)
			if body != nil {
				el.signStmt(inst, body, env)
			}
			return
		}
		el.report.recordNonConst("case", v.Pos)
		for _, item := range v.Items {
			el.signStmt(inst, item.Body, env)
		}
	case *hdl.For:
		if el.vars == nil {
			el.vars = map[string]int64{}
		}
		trips := int64(0)
		err := RunFor(inst, env, el.vars, v, func() error {
			trips++
			el.signStmt(inst, v.Body, env)
			return nil
		})
		if err != nil {
			// Loop bounds must be constant for synthesis; report the
			// error lazily (synthesis will reject it too) but keep the
			// signature walk going, with the loop variable unbound.
			if init, ok := v.Init.(*hdl.Assign); ok {
				if id, ok := init.LHS.(*hdl.Ident); ok {
					delete(el.vars, id.Name)
				}
			}
			el.report.recordNonConst("for", v.Pos)
			el.signStmt(inst, v.Body, env)
			return
		}
		el.report.recordLoop("for", v.Pos, trips)
	}
}
