package hdl

import (
	"fmt"
	"strconv"
	"strings"
)

// Format renders a module back to µHDL source. The output is
// semantically equivalent to the input (it re-parses to an identical
// tree) but normalizes whitespace; it is used for debugging and for the
// parser round-trip tests.
func Format(m *Module) string {
	return format(m, nil)
}

// keySites records what format wrote that the name-blind hash cuts
// out or reads: the byte offset of each instantiated module name in
// the output and the name, in printer order, and the parameter names
// each of those sites binds with a value; the output span of each
// header parameter's default, in declaration order; and the output
// line of each module-level scalar declaration (scalarDecl), in
// declaration order. The module's own name is always at offset
// len(headerPrefix), and every default span precedes the first
// declaration line and the first instance site.
type keySites struct {
	offs     []int
	names    []string
	bound    [][]string
	defaults [][2]int
	decls    []declSite
}

// declSite is one scalar declaration's output line, indent and newline
// included, and the names it declares.
type declSite struct {
	span  [2]int
	names []string
}

// scalarDecl returns the names it declares when it is a wire or reg
// declaration with no range and no memory range, and nil otherwise.
func scalarDecl(it Item) []string {
	d, ok := it.(*NetDecl)
	if !ok || (d.Kind != KindWire && d.Kind != KindReg) || d.Range != nil || d.ArrayRange != nil {
		return nil
	}
	return d.Names
}

// headerPrefix is what Format writes before the module's own name.
const headerPrefix = "module "

// format is Format, also recording the key sites in sites when it is
// non-nil. The module's own name and the instantiated module names are
// the only module names the printer writes.
func format(m *Module, sites *keySites) string {
	var b strings.Builder
	b.WriteString(headerPrefix)
	b.WriteString(m.Name)
	if len(m.Params) > 0 {
		b.WriteString(" #(")
		for i, p := range m.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("parameter ")
			b.WriteString(p.Name)
			b.WriteString(" = ")
			from := b.Len()
			appendExpr(&b, p.Value)
			if sites != nil {
				sites.defaults = append(sites.defaults, [2]int{from, b.Len()})
			}
		}
		b.WriteString(")")
	}
	b.WriteString(" (")
	for i, p := range m.Ports {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.Dir.String())
		if p.IsReg {
			b.WriteString(" reg")
		}
		if p.Range != nil {
			appendRange(&b, p.Range)
		}
		b.WriteByte(' ')
		b.WriteString(p.Name)
	}
	b.WriteString(");\n")
	for _, it := range m.Items {
		from := b.Len()
		printItem(&b, it, 1, sites)
		if names := scalarDecl(it); sites != nil && names != nil {
			sites.decls = append(sites.decls, declSite{[2]int{from, b.Len()}, names})
		}
	}
	b.WriteString("endmodule\n")
	return b.String()
}

func labelSuffix(label string) string {
	if label == "" {
		return ""
	}
	return " : " + label
}

func indent(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteString("  ")
	}
}

func appendRange(b *strings.Builder, r *Range) {
	b.WriteString(" [")
	appendExpr(b, r.MSB)
	b.WriteByte(':')
	appendExpr(b, r.LSB)
	b.WriteByte(']')
}

func printItem(b *strings.Builder, it Item, depth int, sites *keySites) {
	indent(b, depth)
	switch v := it.(type) {
	case *ParamDecl:
		kw := "parameter"
		if v.IsLocal {
			kw = "localparam"
		}
		b.WriteString(kw)
		b.WriteByte(' ')
		b.WriteString(v.Name)
		b.WriteString(" = ")
		appendExpr(b, v.Value)
		b.WriteString(";\n")
	case *NetDecl:
		b.WriteString(v.Kind.String())
		if v.Range != nil {
			appendRange(b, v.Range)
		}
		b.WriteByte(' ')
		for i, name := range v.Names {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(name)
		}
		if v.ArrayRange != nil {
			appendRange(b, v.ArrayRange)
		}
		b.WriteString(";\n")
	case *ContAssign:
		b.WriteString("assign ")
		appendExpr(b, v.LHS)
		b.WriteString(" = ")
		appendExpr(b, v.RHS)
		b.WriteString(";\n")
	case *AlwaysBlock:
		b.WriteString("always @(")
		for i, s := range v.Sens {
			if i > 0 {
				b.WriteString(" or ")
			}
			switch s.Edge {
			case EdgeAny:
				b.WriteString("*")
			case EdgePos:
				b.WriteString("posedge " + s.Signal)
			case EdgeNeg:
				b.WriteString("negedge " + s.Signal)
			default:
				b.WriteString(s.Signal)
			}
		}
		b.WriteString(")\n")
		printStmt(b, v.Body, depth+1)
	case *Instance:
		if sites != nil {
			sites.offs = append(sites.offs, b.Len())
			sites.names = append(sites.names, v.ModuleName)
			var bound []string
			for _, p := range v.Params {
				if p.Value != nil {
					bound = append(bound, p.Name)
				}
			}
			sites.bound = append(sites.bound, bound)
		}
		b.WriteString(v.ModuleName)
		if len(v.Params) > 0 {
			b.WriteString(" #(")
			printBindings(b, v.Params)
			b.WriteString(")")
		}
		b.WriteByte(' ')
		b.WriteString(v.Name)
		b.WriteString(" (")
		printBindings(b, v.Ports)
		b.WriteString(");\n")
	case *GenFor:
		b.WriteString("generate for (")
		b.WriteString(v.Var)
		b.WriteString(" = ")
		appendExpr(b, v.Init)
		b.WriteString("; ")
		appendExpr(b, v.Cond)
		b.WriteString("; ")
		b.WriteString(v.Var)
		b.WriteString(" = ")
		appendExpr(b, v.Step)
		b.WriteString(") begin")
		b.WriteString(labelSuffix(v.Label))
		b.WriteByte('\n')
		for _, sub := range v.Body {
			printItem(b, sub, depth+1, sites)
		}
		indent(b, depth)
		b.WriteString("end endgenerate\n")
	case *GenIf:
		b.WriteString("generate if (")
		appendExpr(b, v.Cond)
		b.WriteString(") begin")
		b.WriteString(labelSuffix(v.ThenLabel))
		b.WriteByte('\n')
		for _, sub := range v.Then {
			printItem(b, sub, depth+1, sites)
		}
		indent(b, depth)
		b.WriteString("end")
		if len(v.Else) > 0 {
			fmt.Fprintf(b, " else begin%s\n", labelSuffix(v.ElseLabel))
			for _, sub := range v.Else {
				printItem(b, sub, depth+1, sites)
			}
			indent(b, depth)
			b.WriteString("end")
		}
		b.WriteString(" endgenerate\n")
	default:
		fmt.Fprintf(b, "// unknown item %T\n", it)
	}
}

func printBindings(b *strings.Builder, bs []Binding) {
	for i, bind := range bs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('.')
		b.WriteString(bind.Name)
		b.WriteByte('(')
		if bind.Value != nil {
			appendExpr(b, bind.Value)
		}
		b.WriteByte(')')
	}
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	indent(b, depth)
	switch v := s.(type) {
	case *Block:
		b.WriteString("begin\n")
		for _, sub := range v.Stmts {
			printStmt(b, sub, depth+1)
		}
		indent(b, depth)
		b.WriteString("end\n")
	case *Assign:
		op := " = "
		if !v.Blocking {
			op = " <= "
		}
		appendExpr(b, v.LHS)
		b.WriteString(op)
		appendExpr(b, v.RHS)
		b.WriteString(";\n")
	case *If:
		b.WriteString("if (")
		appendExpr(b, v.Cond)
		b.WriteString(")\n")
		printStmt(b, v.Then, depth+1)
		if v.Else != nil {
			indent(b, depth)
			b.WriteString("else\n")
			printStmt(b, v.Else, depth+1)
		}
	case *Case:
		kw := "case"
		if v.IsCasez {
			kw = "casez"
		}
		b.WriteString(kw)
		b.WriteString(" (")
		appendExpr(b, v.Subject)
		b.WriteString(")\n")
		for _, item := range v.Items {
			indent(b, depth+1)
			if item.Exprs == nil {
				b.WriteString("default:\n")
			} else {
				for i, e := range item.Exprs {
					if i > 0 {
						b.WriteString(", ")
					}
					appendExpr(b, e)
				}
				b.WriteString(":\n")
			}
			printStmt(b, item.Body, depth+2)
		}
		indent(b, depth)
		b.WriteString("endcase\n")
	case *For:
		initA := v.Init.(*Assign)
		stepA := v.Step.(*Assign)
		b.WriteString("for (")
		appendExpr(b, initA.LHS)
		b.WriteString(" = ")
		appendExpr(b, initA.RHS)
		b.WriteString("; ")
		appendExpr(b, v.Cond)
		b.WriteString("; ")
		appendExpr(b, stepA.LHS)
		b.WriteString(" = ")
		appendExpr(b, stepA.RHS)
		b.WriteString(")\n")
		printStmt(b, v.Body, depth+1)
	default:
		fmt.Fprintf(b, "// unknown stmt %T\n", s)
	}
}

var unaryOpText = map[UnaryOp]string{
	OpNot: "~", OpLogNot: "!", OpNeg: "-",
	OpRedAnd: "&", OpRedOr: "|", OpRedXor: "^",
	OpRedNand: "~&", OpRedNor: "~|", OpRedXnor: "~^",
}

var binaryOpText = map[BinaryOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpAnd: "&", OpOr: "|", OpXor: "^", OpXnor: "~^",
	OpLogAnd: "&&", OpLogOr: "||",
	OpEq: "==", OpNeq: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpShl: "<<", OpShr: ">>",
}

// FormatExpr renders an expression with full parenthesization (safe,
// if verbose).
func FormatExpr(e Expr) string {
	if v, ok := e.(*Ident); ok {
		return v.Name
	}
	var b strings.Builder
	appendExpr(&b, e)
	return b.String()
}

// appendExpr renders an expression directly into b. The printer routes
// every expression through this instead of FormatExpr so formatting a
// module (the source-metrics path runs it once per module) builds no
// intermediate per-node strings.
func appendExpr(b *strings.Builder, e Expr) {
	switch v := e.(type) {
	case *Ident:
		b.WriteString(v.Name)
	case *Number:
		if v.CareMask != 0 {
			b.WriteString(strconv.Itoa(v.Width))
			b.WriteString("'b")
			for i := 0; i < v.Width; i++ {
				bitPos := uint(v.Width - 1 - i)
				switch {
				case (v.CareMask>>bitPos)&1 == 0:
					b.WriteByte('?')
				case (v.Value>>bitPos)&1 == 1:
					b.WriteByte('1')
				default:
					b.WriteByte('0')
				}
			}
			return
		}
		if v.Width > 0 {
			b.WriteString(strconv.Itoa(v.Width))
			b.WriteString("'d")
		}
		b.WriteString(strconv.FormatUint(v.Value, 10))
	case *Unary:
		b.WriteByte('(')
		b.WriteString(unaryOpText[v.Op])
		appendExpr(b, v.X)
		b.WriteByte(')')
	case *Binary:
		b.WriteByte('(')
		appendExpr(b, v.L)
		b.WriteByte(' ')
		b.WriteString(binaryOpText[v.Op])
		b.WriteByte(' ')
		appendExpr(b, v.R)
		b.WriteByte(')')
	case *Ternary:
		b.WriteByte('(')
		appendExpr(b, v.Cond)
		b.WriteString(" ? ")
		appendExpr(b, v.Then)
		b.WriteString(" : ")
		appendExpr(b, v.Else)
		b.WriteByte(')')
	case *Index:
		appendExpr(b, v.Base)
		b.WriteByte('[')
		appendExpr(b, v.Idx)
		b.WriteByte(']')
	case *PartSelect:
		appendExpr(b, v.Base)
		b.WriteByte('[')
		appendExpr(b, v.MSB)
		b.WriteByte(':')
		appendExpr(b, v.LSB)
		b.WriteByte(']')
	case *Concat:
		b.WriteByte('{')
		for i, p := range v.Parts {
			if i > 0 {
				b.WriteString(", ")
			}
			appendExpr(b, p)
		}
		b.WriteByte('}')
	case *Repl:
		b.WriteByte('{')
		appendExpr(b, v.Count)
		b.WriteByte('{')
		appendExpr(b, v.X)
		b.WriteString("}}")
	default:
		fmt.Fprintf(b, "/*?%T*/", e)
	}
}
