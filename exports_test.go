package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names exported identifiers of internal/ that no
// program calls but that stay on purpose, each with its reason. A
// method is written pkg.Type.Method; methods are outside the check, so
// such an entry only records the decision for the day they are not.
var exportAllowlist = map[string]string{
	"core.EvaluatePairs":                  "reproduces the paper's §5.1.1 two-metric search (EXPERIMENTS.md); its tests are the reproduction",
	"core.Calibration.UpdateProductivity": "reproduces the paper's §3.1.1 productivity updating (EXPERIMENTS.md); its tests are the reproduction",
}

// exportExemptPackages are internal/ packages whose exported names
// exist for tests, each with its reason.
var exportExemptPackages = map[string]string{
	"repro/internal/serve/servetest": "test-helper package: its exports are meant for _test.go callers",
}

// exportScanRoots are the directories scanned for references: the root
// module (which holds internal/, cmd/ and examples/) and the bench/
// module, which calls the library through its own main package.
var exportScanRoots = []struct{ dir, module string }{
	{".", "repro"},
	{"bench", "repro/bench"},
}

// TestNoUnusedExports keeps the exported surface of internal/ minimal:
// every package-level exported name (func, type, var, const; methods
// and fields are not covered) must be referenced from at least one
// non-test file — a program, an example, bench/, or the non-test code
// of its own package. A name only tests reach is dead production API:
// unexport it, move it into a _test.go file, or delete it. The check
// is syntactic (go/parser, no type checking): a selector pkg.Name
// counts when pkg resolves through the file's imports, and a bare Name
// counts inside its own package.
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkgPath string
		test    bool
		ast     *ast.File
	}
	var files []file
	for _, root := range exportScanRoots {
		err := filepath.WalkDir(root.dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				// bench/ is a module of its own, scanned as its own root.
				if p != root.dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					(root.dir == "." && p == "bench")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root.dir, filepath.Dir(p))
			if err != nil {
				return err
			}
			pkgPath := root.module
			if rel != "." {
				pkgPath = path.Join(root.module, filepath.ToSlash(rel))
			}
			files = append(files, file{pkgPath: pkgPath, test: strings.HasSuffix(p, "_test.go"), ast: f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Declarations: package-level exported names of non-test files in
	// internal/, keyed "importpath.Name". The declaring identifiers
	// themselves are not references.
	type decl struct {
		pkgName string
		pos     token.Position
	}
	decls := map[string]decl{}
	methods := map[string]bool{} // "pkg.Type.Method", for the allowlist check
	declIdents := map[*ast.Ident]bool{}
	pkgNames := map[string]string{} // import path -> package name
	for _, f := range files {
		if f.test {
			continue
		}
		pkgNames[f.pkgPath] = f.ast.Name.Name
		if !strings.HasPrefix(f.pkgPath, "repro/internal/") {
			continue
		}
		add := func(id *ast.Ident) {
			declIdents[id] = true
			if id.IsExported() {
				decls[f.pkgPath+"."+id.Name] = decl{pkgName: f.ast.Name.Name, pos: fset.Position(id.Pos())}
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
					continue
				}
				declIdents[d.Name] = true
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if generic, ok := recv.(*ast.IndexExpr); ok {
					recv = generic.X
				}
				if r, ok := recv.(*ast.Ident); ok {
					methods[f.ast.Name.Name+"."+r.Name+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
	}

	// References from non-test files. A selector X.Name counts when X
	// names an import of the file; a bare identifier counts in its own
	// package unless it is a declaration, a selector's field or method
	// name, or a field or parameter name.
	used := map[string]bool{}
	for _, f := range files {
		if f.test {
			continue
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.ast.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			name := path.Base(p)
			if n, ok := pkgNames[p]; ok {
				name = n
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		skip := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.Ident:
				if !skip[n] && !declIdents[n] {
					used[f.pkgPath+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	for key, d := range decls {
		pkgPath := key[:strings.LastIndex(key, ".")]
		short := d.pkgName + key[len(pkgPath):]
		if used[key] || exportAllowlist[short] != "" || exportExemptPackages[pkgPath] != "" {
			continue
		}
		unused = append(unused, d.pos.String()+": "+short)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but referenced only from tests (or not at all): unexport, move into a _test.go file, or delete it", u)
	}

	// Every allowlist entry must still name a declared, otherwise unused
	// export, so the list cannot go stale.
	for short := range exportAllowlist {
		found := methods[short]
		for key, d := range decls {
			if d.pkgName+key[strings.LastIndex(key, "."):] == short {
				found = true
				if used[key] {
					t.Errorf("allowlisted %s now has a non-test caller: drop it from exportAllowlist", short)
				}
			}
		}
		if !found {
			t.Errorf("allowlisted %s is not an exported name of internal/: drop it from exportAllowlist", short)
		}
	}
}
