package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported identifiers of internal/ that the gate
// reports but that stay on purpose, each with its reason. Keys are
// pkg.Name for package-level names, pkg.Type.Method for methods and
// pkg.Type.Field for struct fields.
var exportAllowlist = map[string]string{
	"core.EvaluatePairs":                  "reproduces the paper's §5.1.1 two-metric search (EXPERIMENTS.md); its tests are the reproduction",
	"core.PairAccuracy.Name":              "part of core.EvaluatePairs' result, the §5.1.1 reproduction above",
	"core.Calibration.UpdateProductivity": "reproduces the paper's §3.1.1 productivity updating (EXPERIMENTS.md); its tests are the reproduction",
	"synth.LowerOptions.DisableTemplates": "the reference lowering path that the template golden tests compare against",
	"serve.Config.OnAdmitted":             "a test seam: tests block admitted requests on it to observe the admission queue",
	"fpga.Options.K":                      "the only field of fpga.Options, which bench/replay.go passes to fpga.MapWS; the struct goes when bench/ stops calling MapWS (ROADMAP)",
	"measure.ComponentResult.Synth":       "bench/edit.go reads it for measure.neutral_dirty_share; goes when bench/ switches to NetlistHash (ROADMAP)",
}

// exportExemptPackages are internal/ packages whose exported names
// exist for tests, each with its reason.
var exportExemptPackages = map[string]string{
	"repro/internal/serve/servetest": "test-helper package: its exports are meant for _test.go callers",
}

// exportExemptMethods are method names the gate never reports: callers
// reach them through fmt and errors, not through a call in the code.
var exportExemptMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// TestNoUnusedExports keeps the exported surface of internal/ minimal.
// It type-checks the non-test files of the root module and of bench/
// (a module of its own that calls the library) and checks three things:
//
//  1. every package-level exported name of internal/ is used by some
//     non-test code: a program, an example, bench/, or its own package;
//  2. every exported method has a non-test use (a call, a method value
//     or a method expression), Error, String and Unwrap excepted;
//  3. every exported struct field is set by some non-test code.
//
// A name only tests reach is dead production API: unexport it, move it
// into a _test.go file, or delete it. An option field no program sets
// is a knob with one value: delete it and keep its zero-value rule.
func TestNoUnusedExports(t *testing.T) {
	found, err := unusedExports([]string{".", "bench"}, exportExemptPackages)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range gateErrors(found, exportAllowlist) {
		t.Error(e)
	}
}

// TestNoUnusedExportsPlanted runs the gate over the fixture module in
// testdata/minimality, which plants one case of each rule: an unused
// package-level name, a method only a test calls and a field only read
// must be reported; a method value, a method expression and fields set
// by ++, &, a nested write, an element write and an unkeyed literal
// must not. Two stale allowlist entries, one for a used name and one
// for a name that does not exist, must each fail the gate.
func TestNoUnusedExportsPlanted(t *testing.T) {
	found, err := unusedExports([]string{filepath.Join("testdata", "minimality")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for short := range found {
		got = append(got, short)
	}
	sort.Strings(got)
	if want := []string{"a.Dead", "a.Opts.R", "a.T.Unused"}; !slices.Equal(got, want) {
		t.Errorf("findings = %v, want %v", got, want)
	}
	errs := gateErrors(found, map[string]string{"a.Dead": "kept", "a.Live": "stale: used", "a.Gone": "stale: missing"})
	wantErrs := []string{"allowlisted a.Gone", "allowlisted a.Live", "a.Opts.R is an exported field", "a.T.Unused is exported"}
	if len(errs) != len(wantErrs) {
		t.Fatalf("gate errors = %q, want one for each of %q", errs, wantErrs)
	}
	for _, w := range wantErrs {
		if !slices.ContainsFunc(errs, func(e string) bool { return strings.Contains(e, w) }) {
			t.Errorf("no gate error names %q: %q", w, errs)
		}
	}
}

// gateErrors turns findings into test failures, minus the allowlist.
// An allowlist entry that matches no finding is stale: the name is now
// used, or no longer exists.
func gateErrors(found map[string]string, allow map[string]string) []string {
	var errs []string
	for short, msg := range found {
		if allow[short] == "" {
			errs = append(errs, msg+": unexport it, move it into a _test.go file, or delete it")
		}
	}
	for short := range allow {
		if _, ok := found[short]; !ok {
			errs = append(errs, fmt.Sprintf("allowlisted %s is used or no longer exists: drop it from the allowlist", short))
		}
	}
	sort.Strings(errs)
	return errs
}

// listedPackage is the part of `go list -json` the gate reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct {
		Path string
		Main bool
	}
}

// listModule lists the packages of the module in dir and all their
// dependencies, with the path of each one's compiled export data. The
// environment pins the module to local sources: no proxy, no workspace
// and no inherited flags, so the listing can never reach the network.
func listModule(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Module", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOWORK=off", "GOFLAGS=")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// objKey names a declared object across type-checker universes. A
// package checked from source and the same package read from another
// package's export data yield distinct objects for one declaration, so
// the key is where it is declared, not the object pointer. Instantiated
// generic methods and fields share their origin's position too.
type objKey struct {
	pkg, file string
	line      int
	name      string
}

func keyOf(fset *token.FileSet, obj types.Object) objKey {
	p := fset.Position(obj.Pos())
	return objKey{obj.Pkg().Path(), filepath.Base(p.Filename), p.Line, obj.Name()}
}

// exportDecl is one exported name under check.
type exportDecl struct {
	short string // pkg.Name, pkg.Type.Method or pkg.Type.Field
	key   objKey
	pos   token.Position
	field bool // a struct field: checked for a set, not a use
}

// unusedExports type-checks the non-test files of every package of the
// modules in dirs, importing each dependency from its export data, and
// reports the exported names of the first module's internal/ packages
// that fail a check: package-level names and methods without a non-test
// use, and struct fields that no non-test code sets. Findings map each
// name to its message.
func unusedExports(dirs []string, exempt map[string]string) (map[string]string, error) {
	fset := token.NewFileSet()
	used := map[objKey]bool{}
	set := map[objKey]bool{}
	var decls []exportDecl
	for i, dir := range dirs {
		pkgs, err := listModule(dir)
		if err != nil {
			return nil, err
		}
		exports := map[string]string{}
		for _, p := range pkgs {
			exports[p.ImportPath] = p.Export
		}
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(exports[path])
		})
		for _, p := range pkgs {
			if p.Module == nil || !p.Module.Main || len(p.GoFiles) == 0 {
				continue
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
			if err != nil {
				return nil, err
			}
			for _, obj := range info.Uses {
				if obj.Pkg() != nil {
					used[keyOf(fset, obj)] = true
				}
			}
			for _, f := range files {
				markSets(fset, info, f, set)
			}
			if i == 0 && strings.HasPrefix(p.ImportPath, p.Module.Path+"/internal/") && exempt[p.ImportPath] == "" {
				decls = append(decls, exportedDecls(fset, pkg)...)
			}
		}
	}
	found := map[string]string{}
	for _, d := range decls {
		switch {
		case d.field && !set[d.key]:
			found[d.short] = fmt.Sprintf("%s: %s is an exported field that no non-test code sets", d.pos, d.short)
		case !d.field && !used[d.key]:
			found[d.short] = fmt.Sprintf("%s: %s is exported but used only from tests (or not at all)", d.pos, d.short)
		}
	}
	return found, nil
}

// exportedDecls lists pkg's exported package-level names, the exported
// methods of its named types and the exported fields of its struct
// types.
func exportedDecls(fset *token.FileSet, pkg *types.Package) []exportDecl {
	var decls []exportDecl
	add := func(short string, obj types.Object, field bool) {
		decls = append(decls, exportDecl{short, keyOf(fset, obj), fset.Position(obj.Pos()), field})
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			add(pkg.Name()+"."+name, obj, false)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() && !exportExemptMethods[m.Name()] {
				add(pkg.Name()+"."+name+"."+m.Name(), m, false)
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					add(pkg.Name()+"."+name+"."+f.Name(), f, true)
				}
			}
		}
	}
	return decls
}

// markSets records in set every struct field that f writes: the keys of
// a keyed composite literal, every field of an unkeyed one, and the
// fields on the left of =, op=, ++ and -- or under &. A write to x.F[i]
// or x.F.G writes F as well.
func markSets(fset *token.FileSet, info *types.Info, f *ast.File, set map[objKey]bool) {
	write := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					set[keyOf(fset, sel.Obj())] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok || len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := 0; i < st.NumFields(); i++ {
					set[keyOf(fset, st.Field(i))] = true
				}
				break
			}
			for _, elt := range n.Elts {
				if obj := info.Uses[elt.(*ast.KeyValueExpr).Key.(*ast.Ident)]; obj != nil {
					set[keyOf(fset, obj)] = true
				}
			}
		}
		return true
	})
}
