// Package srcmetrics measures the software metrics of Table 3 of the
// µComplexity paper — LoC and Stmts — on µHDL sources.
//
// The paper does not define the two metrics beyond "number of lines in
// the HDL code" and "number of statements in the HDL code"; we pin them
// down as:
//
//   - LoC: source lines that carry at least one token, i.e. lines that
//     are neither blank nor comment-only. This is the conventional
//     "source lines of code" definition used by COCOMO-style models.
//   - Stmts: the number of statement-like AST nodes. Declarations,
//     continuous assignments, procedural assignments, if, case (plus
//     one per case item), for loops, always blocks, module
//     instantiations, and generate constructs each count as one;
//     begin/end blocks and expressions do not.
//
// Both metrics are measured on the *source text* of a module, before
// elaboration, so they are independent of parameter values and
// instance counts — exactly why Section 5.3 of the paper finds that
// the accounting procedure does not change them.
package srcmetrics

import (
	"strings"

	"repro/internal/hdl"
)

// Counts holds the software metrics of one module or file.
type Counts struct {
	LoC   int // non-blank, non-comment source lines
	Stmts int // statement AST nodes (see package comment)
}

// MeasureModule returns the statement count of a parsed module together
// with a LoC value computed from its formatted source, so layout and
// comments in the original text do not change it.
func MeasureModule(m *hdl.Module) Counts {
	formatted := hdl.Format(m)
	loc := 0
	for _, line := range strings.Split(formatted, "\n") {
		if strings.TrimSpace(line) != "" {
			loc++
		}
	}
	return Counts{LoC: loc, Stmts: CountModuleStmts(m)}
}

// CountModuleStmts counts statement nodes in a module (see the package
// comment for the exact definition).
func CountModuleStmts(m *hdl.Module) int {
	n := 0
	for _, p := range m.Params {
		_ = p
		n++ // each header parameter is a declaration statement
	}
	for _, it := range m.Items {
		n += countItem(it)
	}
	return n
}

func countItem(it hdl.Item) int {
	switch v := it.(type) {
	case *hdl.ParamDecl:
		return 1
	case *hdl.NetDecl:
		return 1
	case *hdl.ContAssign:
		return 1
	case *hdl.Instance:
		return 1
	case *hdl.AlwaysBlock:
		return 1 + countStmt(v.Body)
	case *hdl.GenFor:
		n := 1
		for _, sub := range v.Body {
			n += countItem(sub)
		}
		return n
	case *hdl.GenIf:
		n := 1
		for _, sub := range v.Then {
			n += countItem(sub)
		}
		for _, sub := range v.Else {
			n += countItem(sub)
		}
		return n
	}
	return 0
}

func countStmt(s hdl.Stmt) int {
	switch v := s.(type) {
	case *hdl.Block:
		n := 0
		for _, sub := range v.Stmts {
			n += countStmt(sub)
		}
		return n
	case *hdl.Assign:
		return 1
	case *hdl.If:
		n := 1 + countStmt(v.Then)
		if v.Else != nil {
			n += countStmt(v.Else)
		}
		return n
	case *hdl.Case:
		n := 1
		for _, item := range v.Items {
			n += 1 + countStmt(item.Body)
		}
		return n
	case *hdl.For:
		// The init and step assignments are part of the loop header;
		// count the loop itself plus its body.
		return 1 + countStmt(v.Body)
	}
	return 0
}
