package hdl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Design is a collection of parsed source files forming one design:
// every module name maps to exactly one declaration. The files may be
// shared with other designs (see ParseDesignParallel); a Design never
// writes to them.
type Design struct {
	Files   []*SourceFile
	modules map[string]decl

	mu          sync.Mutex
	fingerprint string             // memoized Fingerprint; reset by AddFile
	subtreeHash map[string]string  // memoized SubtreeHash per top; reset by AddFile
	keys        map[string]keyPair // memoized StructuralHash and DesignPointHash per top; reset by AddFile
}

// decl locates a module declaration: file.Modules[i].
type decl struct {
	file *SourceFile
	i    int
}

func (c decl) module() *Module { return c.file.Modules[c.i] }

// NewDesign builds a Design from parsed files, rejecting duplicate
// module names.
func NewDesign(files ...*SourceFile) (*Design, error) {
	d := &Design{modules: map[string]decl{}}
	for _, f := range files {
		if err := d.AddFile(f); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// AddFile adds a parsed file to the design.
func (d *Design) AddFile(f *SourceFile) error {
	for i, m := range f.Modules {
		if prev, ok := d.modules[m.Name]; ok {
			return fmt.Errorf("hdl: module %q declared at both %s and %s", m.Name, prev.module().Pos, m.Pos)
		}
		d.modules[m.Name] = decl{file: f, i: i}
	}
	d.Files = append(d.Files, f)
	d.mu.Lock()
	d.fingerprint = ""
	d.subtreeHash = nil
	d.keys = nil
	d.mu.Unlock()
	return nil
}

// ParseDesign parses named sources (name → text) into one Design,
// sequentially: it is ParseDesignParallel(sources, 1).
func ParseDesign(sources map[string]string) (*Design, error) {
	return ParseDesignParallel(sources, 1)
}

// Module returns the module named name, or an error listing what the
// design does contain.
func (d *Design) Module(name string) (*Module, error) {
	c, ok := d.modules[name]
	if !ok {
		return nil, fmt.Errorf("hdl: no module %q in design (have %v)", name, d.ModuleNames())
	}
	return c.module(), nil
}

// HasModule reports whether the design declares name.
func (d *Design) HasModule(name string) bool {
	_, ok := d.modules[name]
	return ok
}

// ModuleNames returns all module names, sorted.
func (d *Design) ModuleNames() []string {
	names := make([]string, 0, len(d.modules))
	for n := range d.modules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Fingerprint returns a stable content hash of the design: every
// module's ModuleHash mixed in name order and hashed with SHA-256. Two
// designs with structurally identical module declarations fingerprint
// identically regardless of file layout or declaration order. It is
// the "source tree" part of the content-addressed cache keys in
// internal/cache.
//
// The hash is memoized (and invalidated by AddFile): a measurement
// session derives one disk-cache key per unit from the same design.
// The per-module hashes it is built from were computed once, when
// their file was parsed; ModuleHash and SubtreeHash read the same ones.
func (d *Design) Fingerprint() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fingerprint != "" {
		return d.fingerprint
	}
	d.fingerprint = d.mixHashes(d.ModuleNames())
	return d.fingerprint
}

// mixHashes hashes the (name, ModuleHash) pairs of names, in order.
func (d *Design) mixHashes(names []string) string {
	h := sha256.New()
	for _, name := range names {
		c := d.modules[name]
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write([]byte(c.file.hashesOf(c.i).named))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ModuleHash returns a stable content hash of one module declaration:
// SHA-256 over its pretty-printed source. Two modules hash equal
// exactly when their formatted declarations are byte-identical, which
// is the precision every downstream stage — elaboration, synthesis,
// source metrics — keys off. SubtreeHash is built from it, and
// internal/depgraph compares it to report which modules an edit
// changed. The hash is read from the module's file, which Parse hashed
// once.
func (d *Design) ModuleHash(name string) (string, error) {
	if _, err := d.Module(name); err != nil {
		return "", err
	}
	c := d.modules[name]
	return c.file.hashesOf(c.i).named, nil
}

// SourceCounts returns the software metrics of the module named name
// (internal/srcmetrics defines them): the non-blank lines of its
// formatted declaration, so layout and comments in the original text
// do not change the count, and its statement count (CountStmts). Both
// were taken once, when Parse read the module's file.
func (d *Design) SourceCounts(name string) (loc, stmts int, err error) {
	c, ok := d.modules[name]
	if !ok {
		_, err := d.Module(name)
		return 0, 0, err
	}
	mh := c.file.hashesOf(c.i)
	return mh.loc, mh.stmts, nil
}

// moduleHashes are one module's source hashes and counts, all taken
// from one Format pass: the ModuleHash, what StructuralHash reads, and
// what SourceCounts reports.
type moduleHashes struct {
	named string // ModuleHash: hex SHA-256 over Format(m)
	// blind is SHA-256 over Format(m) with every module name and every
	// header parameter default cut out: the count of text runs between
	// the cuts, then each run, length-prefixed. Every dead declaration
	// (deadDecls) is deleted from the runs.
	blind [sha256.Size]byte
	// defaults are the SHA-256 of each header parameter default's
	// text, in declaration order: the texts blind leaves out.
	defaults [][sha256.Size]byte
	// children are the instantiated module names, one per instance,
	// in printer order: the names blind leaves out, after the module's
	// own. bound holds, per instance, the parameter names it binds
	// with a value.
	children []string
	bound    [][]string
	// loc and stmts are the module's source counts: the non-blank
	// lines of Format(m) and CountStmts(m).
	loc, stmts int
}

// hashModule computes m's hashes and source counts.
func hashModule(m *Module) moduleHashes {
	var sites keySites
	formatted := format(m, &sites)
	text := []byte(formatted)
	named := sha256.Sum256(text)
	mh := moduleHashes{
		named:    hex.EncodeToString(named[:]),
		defaults: make([][sha256.Size]byte, len(sites.defaults)),
		children: sites.names,
		bound:    sites.bound,
		stmts:    CountStmts(m),
	}
	for rest := formatted; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if strings.TrimSpace(line) != "" {
			mh.loc++
		}
	}
	// A run holds a dead declaration whole: no declaration line holds
	// a module name or a default.
	dead := deadDecls(text, &sites)
	h := sha256.New()
	var n [8]byte
	run := func(from, to int) {
		size, j := to-from, 0
		for ; j < len(dead) && dead[j][1] <= to; j++ {
			size -= dead[j][1] - dead[j][0]
		}
		binary.LittleEndian.PutUint64(n[:], uint64(size))
		h.Write(n[:])
		for _, span := range dead[:j] {
			h.Write(text[from:span[0]])
			from = span[1]
		}
		dead = dead[j:]
		h.Write(text[from:to])
	}
	binary.LittleEndian.PutUint64(n[:], uint64(len(sites.defaults)+len(sites.offs)+2))
	h.Write(n[:])
	run(0, len(headerPrefix))
	pos := len(headerPrefix) + len(m.Name)
	for i, span := range sites.defaults {
		run(pos, span[0])
		mh.defaults[i] = sha256.Sum256(text[span[0]:span[1]])
		pos = span[1]
	}
	for i, off := range sites.offs {
		run(pos, off)
		pos = off + len(sites.names[i])
	}
	run(pos, len(text))
	h.Sum(mh.blind[:0])
	return mh
}

// deadDecls returns the output lines of the module-level scalar
// declarations in sites.decls whose every name occurs exactly once as
// an identifier token of text, module names left out: no other text of
// the module reads or drives them. The lines are in text order. It
// counts only when the module has such a declaration.
func deadDecls(text []byte, sites *keySites) [][2]int {
	if len(sites.decls) == 0 {
		return nil
	}
	slot := map[string]int{}
	for _, d := range sites.decls {
		for _, name := range d.names {
			if _, ok := slot[name]; !ok {
				slot[name] = len(slot)
			}
		}
	}
	counts := make([]int, len(slot))
	next := 0 // the next instance site, whose module name is skipped
	for i := 0; i < len(text); {
		if !isIdentPart(text[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(text) && isIdentPart(text[j]) {
			j++
		}
		switch {
		case i == len(headerPrefix):
			// The module's own name.
		case next < len(sites.offs) && i == sites.offs[next]:
			next++
		case !isIdentStart(text[i]) || i > 0 && text[i-1] == '\'':
			// A number, or a based literal's digits.
		default:
			if k, ok := slot[string(text[i:j])]; ok {
				counts[k]++
			}
		}
		i = j
	}
	var dead [][2]int
	for _, d := range sites.decls {
		once := true
		for _, name := range d.names {
			once = once && counts[slot[name]] == 1
		}
		if once {
			dead = append(dead, d.span)
		}
	}
	return dead
}

// SubtreeHash returns a stable content hash of the module subtree
// rooted at top: the (name, ModuleHash) pairs of top's transitive
// module set, mixed in sorted name order. Every measurement of top is
// a pure function of exactly this subtree (elaboration, synthesis, and
// the source metrics never read a module outside it), so SubtreeHash
// is the correct "source" component of top's content-addressed cache
// keys: an edit to a module outside the subtree leaves the hash — and
// every cache entry keyed by it — untouched, which is what makes the
// persistent cache survive unrelated edits. It is also what
// incremental remeasurement (internal/depgraph) compares to decide
// whether a unit must be re-measured. Memoized per top; invalidated by
// AddFile.
func (d *Design) SubtreeHash(top string) (string, error) {
	d.mu.Lock()
	if h, ok := d.subtreeHash[top]; ok {
		d.mu.Unlock()
		return h, nil
	}
	d.mu.Unlock()
	modules, err := d.TransitiveModules(top)
	if err != nil {
		return "", err
	}
	sum := d.mixHashes(modules)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.subtreeHash == nil {
		d.subtreeHash = map[string]string{}
	}
	d.subtreeHash[top] = sum
	return sum, nil
}

// StructuralHash returns a content hash of the module subtree rooted at
// top that no module name, no dead parameter default and no dead
// declaration enters: two tops hash equal exactly when one subtree is
// the other under a bijective renaming of modules, a rewriting of dead
// defaults, and an adding or deleting of dead declarations. It
// covers the rest of what SubtreeHash covers — every transitive
// module's formatted source — so it can key anything that is a pure
// function of the subtree, reads no module name, and elaborates top
// at its defaults or at any overrides; the measurement session keys
// its accounting searches by it.
//
// A header parameter default of a module below top is dead when every
// instance site of that module in the subtree binds the parameter with
// a value. Elaboration (elab.ResolveParams) evaluates a default only
// when no override names it, so no elaboration of top ever reads a
// dead default. Sites in generate branches elaboration never takes
// count too, which only keeps a default that could have been cut. A
// localparam, or a parameter declared in a module body, has no
// override and is never cut. top's own defaults are mixed in whole:
// the accounting search starts from them.
//
// A declaration is dead when it is a module-level wire or reg with no
// range and no memory range whose every name occurs exactly once among
// the module's identifier tokens, module names left out (deadDecls):
// no other text of the module reads, drives or redeclares it. Such a
// declaration can fail elaboration only as a duplicate, and nothing
// downstream reads a net no text names (lowering allocates nets on
// first use), so no elaboration, netlist or report depends on it. Its
// line is deleted from the name-blind text. A ranged declaration stays
// in: its range can fail at some parameter values, which moves the
// accounting search.
//
// The modules are numbered breadth-first from top (0) in order of their
// first instance in printer order. The hash mixes, per module in that
// order, its name-blind source hash, each live default's text hash (a
// marker for a dead one) and, per instance site, the child's number.
// Numbering rather than mixing each child's own hash is what keeps the
// hash exact:
//   - Two sites of one module name are one number, two names with
//     identical bodies are two. Lowering dedups sibling instances by
//     module name, so P{A u1; A u2} and P{A u1; B u2} must differ even
//     when A and B have identical bodies.
//   - The same holds across parents: whether two parents instantiate
//     one module or two identical ones changes what the elaboration
//     cache shares, and so the search counters a unit reports.
//   - An instantiation cycle is a back reference to a number; no
//     recursion is needed to hash it.
//
// A name no module declares is mixed in literally. Memoized per top,
// with DesignPointHash; invalidated by AddFile.
func (d *Design) StructuralHash(top string) (string, error) {
	k, err := d.structuralKeys(top)
	return k.structural, err
}

// DesignPointHash is StructuralHash with top's own defaults cut as
// well, unless an instance site in the subtree leaves one unbound. It
// names top's design points together with the full resolved parameter
// binding of top (elab.ResolveParams), which holds every value a cut
// default could contribute: an elaboration of top at that binding
// reads no cut default. The measurement session keys its synthesis
// flights and "sig" records by the pair.
func (d *Design) DesignPointHash(top string) (string, error) {
	k, err := d.structuralKeys(top)
	return k.point, err
}

// keyPair is one top's StructuralHash and DesignPointHash.
type keyPair struct {
	structural, point string
}

// structuralKeys computes and memoizes top's StructuralHash and
// DesignPointHash in one walk of the parse-time module hashes.
func (d *Design) structuralKeys(top string) (keyPair, error) {
	d.mu.Lock()
	if k, ok := d.keys[top]; ok {
		d.mu.Unlock()
		return k, nil
	}
	d.mu.Unlock()
	if _, err := d.Module(top); err != nil {
		return keyPair{}, err
	}
	// Number the modules and mark, per module and header parameter,
	// whether some instance site leaves it unbound: the live defaults.
	type numbered struct {
		mh     *moduleHashes
		params []*ParamDecl
		live   []bool
	}
	c := d.modules[top]
	number := map[string]int{top: 0}
	mods := []numbered{{c.file.hashesOf(c.i), c.module().Params, make([]bool, len(c.module().Params))}}
	for k := 0; k < len(mods); k++ {
		mh := mods[k].mh
		for s, name := range mh.children {
			j, ok := number[name]
			if !ok {
				c, declared := d.modules[name]
				if !declared {
					continue
				}
				j = len(mods)
				number[name] = j
				params := c.module().Params
				mods = append(mods, numbered{c.file.hashesOf(c.i), params, make([]bool, len(params))})
			}
			for i, p := range mods[j].params {
				if !slices.Contains(mh.bound[s], p.Name) {
					mods[j].live[i] = true
				}
			}
		}
	}
	h := sha256.New()
	var n [9]byte
	for _, m := range mods {
		mh := m.mh
		h.Write(mh.blind[:])
		for i, dh := range mh.defaults {
			if !m.live[i] {
				n[0] = 'x'
				h.Write(n[:1])
				continue
			}
			n[0] = 'd'
			h.Write(n[:1])
			h.Write(dh[:])
		}
		for _, name := range mh.children {
			j, ok := number[name]
			if !ok {
				n[0] = 'u'
				binary.LittleEndian.PutUint64(n[1:], uint64(len(name)))
				h.Write(n[:])
				h.Write([]byte(name))
				continue
			}
			n[0] = 'm'
			binary.LittleEndian.PutUint64(n[1:], uint64(j))
			h.Write(n[:])
		}
	}
	var point, structural [sha256.Size]byte
	h.Sum(point[:0])
	// The structural hash adds every one of top's own defaults.
	h.Reset()
	h.Write(point[:])
	for _, dh := range mods[0].mh.defaults {
		h.Write(dh[:])
	}
	h.Sum(structural[:0])
	k := keyPair{structural: hex.EncodeToString(structural[:]), point: hex.EncodeToString(point[:])}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.keys == nil {
		// Planning asks for the keys of most modules: size for all.
		d.keys = make(map[string]keyPair, len(d.modules))
	}
	d.keys[top] = k
	return k, nil
}

// Instantiated returns the set of module names instantiated (directly)
// by m that are declared in this design.
func (d *Design) Instantiated(m *Module) []string {
	seen := map[string]bool{}
	var walk func(items []Item)
	walk = func(items []Item) {
		for _, it := range items {
			switch v := it.(type) {
			case *Instance:
				if d.HasModule(v.ModuleName) {
					seen[v.ModuleName] = true
				}
			case *GenFor:
				walk(v.Body)
			case *GenIf:
				walk(v.Then)
				walk(v.Else)
			}
		}
	}
	walk(m.Items)
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TransitiveModules returns top and every module reachable from it via
// instantiation, sorted, or an error on a missing module reference.
func (d *Design) TransitiveModules(top string) ([]string, error) {
	root, err := d.Module(top)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{top: true}
	queue := []*Module{root}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		for _, child := range d.Instantiated(m) {
			if !seen[child] {
				seen[child] = true
				cm, err := d.Module(child)
				if err != nil {
					return nil, err
				}
				queue = append(queue, cm)
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}
