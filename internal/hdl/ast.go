package hdl

// SourceFile is a parsed µHDL file: a list of module declarations.
// A SourceFile returned by this package is shared and read-only (see
// the package documentation).
type SourceFile struct {
	File    string
	Modules []*Module

	hashes []moduleHashes // hashes of Modules[i], filled by Parse
}

// hashesOf returns the hashes of f.Modules[i]: the ones Parse stored,
// or, for a SourceFile assembled by hand, freshly computed ones.
func (f *SourceFile) hashesOf(i int) *moduleHashes {
	if len(f.hashes) == len(f.Modules) {
		return &f.hashes[i]
	}
	mh := hashModule(f.Modules[i])
	return &mh
}

// Module is a module declaration.
type Module struct {
	Name   string
	Params []*ParamDecl // header #(parameter ...) parameters, in order
	Ports  []*Port      // ANSI port list, in order
	Items  []Item       // body items, in order
	Pos    Pos
}

// PortDir is a port direction.
type PortDir int

// Port directions.
const (
	Input PortDir = iota
	Output
	Inout
)

func (d PortDir) String() string {
	switch d {
	case Input:
		return "input"
	case Output:
		return "output"
	case Inout:
		return "inout"
	}
	return "?"
}

// Port is one ANSI-style port declaration.
type Port struct {
	Name  string
	Dir   PortDir
	IsReg bool
	Range *Range // nil for 1-bit scalar
	Pos   Pos
}

// Range is a vector range [MSB:LSB]. Both bounds are constant
// expressions evaluated at elaboration.
type Range struct {
	MSB, LSB Expr
}

// Item is a module body item.
type Item interface{ itemNode() }

// ParamDecl declares a parameter or localparam with a default value.
type ParamDecl struct {
	Name    string
	Value   Expr
	IsLocal bool
	Pos     Pos
}

// NetKind distinguishes declared signal kinds.
type NetKind int

// Net kinds.
const (
	KindWire NetKind = iota
	KindReg
	KindInteger
	KindGenvar
)

func (k NetKind) String() string {
	switch k {
	case KindWire:
		return "wire"
	case KindReg:
		return "reg"
	case KindInteger:
		return "integer"
	case KindGenvar:
		return "genvar"
	}
	return "?"
}

// NetDecl declares one or more signals of the same kind and range.
// A non-nil ArrayRange makes each name a memory array
// (reg [W-1:0] name [A:B]).
type NetDecl struct {
	Kind       NetKind
	Names      []string
	Range      *Range // element width; nil = scalar
	ArrayRange *Range // nil unless memory
	Pos        Pos
}

// ContAssign is a continuous assignment: assign LHS = RHS.
type ContAssign struct {
	LHS Expr
	RHS Expr
	Pos Pos
}

// EdgeKind is the edge of a sensitivity-list event.
type EdgeKind int

// Sensitivity edges. EdgeNone means level sensitivity (plain signal in
// the list); EdgeAny is @(*).
const (
	EdgeNone EdgeKind = iota
	EdgePos
	EdgeNeg
	EdgeAny
)

// SensItem is one event in an always sensitivity list.
type SensItem struct {
	Edge   EdgeKind
	Signal string // empty for EdgeAny
}

// AlwaysBlock is an always @(...) statement.
type AlwaysBlock struct {
	Sens []SensItem
	Body Stmt
	Pos  Pos
}

// Instance is a module instantiation with named bindings:
//
//	sub #(.W(8)) u0 (.clk(clk), .q(q));
type Instance struct {
	ModuleName string
	Name       string
	Params     []Binding
	Ports      []Binding
	Pos        Pos
}

// Binding is one named connection .Name(Value). A nil Value means an
// explicitly unconnected port (.q()).
type Binding struct {
	Name  string
	Value Expr
	Pos   Pos
}

// GenFor is a generate for loop over a genvar.
type GenFor struct {
	Var   string
	Init  Expr // initial genvar value
	Cond  Expr // loop condition over the genvar
	Step  Expr // next genvar value (full expression, e.g. i + 1)
	Label string
	Body  []Item
	Pos   Pos
}

// GenIf is a generate if/else.
type GenIf struct {
	Cond      Expr
	Then      []Item
	ThenLabel string
	Else      []Item
	ElseLabel string
	Pos       Pos
}

func (*ParamDecl) itemNode()   {}
func (*NetDecl) itemNode()     {}
func (*ContAssign) itemNode()  {}
func (*AlwaysBlock) itemNode() {}
func (*Instance) itemNode()    {}
func (*GenFor) itemNode()      {}
func (*GenIf) itemNode()       {}

// Stmt is a behavioral statement inside an always block.
type Stmt interface{ stmtNode() }

// Block is a begin/end sequence.
type Block struct {
	Stmts []Stmt
	Pos   Pos
}

// Assign is a blocking (=) or nonblocking (<=) procedural assignment.
type Assign struct {
	LHS      Expr
	RHS      Expr
	Blocking bool
	Pos      Pos
}

// If is an if/else statement; Else may be nil.
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt
	Pos  Pos
}

// CaseItem is one arm of a case statement; nil Exprs marks default.
type CaseItem struct {
	Exprs []Expr
	Body  Stmt
	Pos   Pos
}

// Case is a case or casez statement.
type Case struct {
	Subject Expr
	Items   []CaseItem
	IsCasez bool
	Pos     Pos
}

// For is a procedural for loop; bounds must be elaboration-time
// constants so the loop can be unrolled during synthesis.
type For struct {
	Init Stmt // the init assignment (i = 0)
	Cond Expr
	Step Stmt // the step assignment (i = i + 1)
	Body Stmt
	Pos  Pos
}

func (*Block) stmtNode()  {}
func (*Assign) stmtNode() {}
func (*If) stmtNode()     {}
func (*Case) stmtNode()   {}
func (*For) stmtNode()    {}

// Expr is an expression.
type Expr interface{ exprNode() }

// Ident references a signal, parameter, genvar, or integer variable.
type Ident struct {
	Name string
	Pos  Pos
}

// Number is a numeric literal. Width 0 means unsized. CareMask is 0
// for ordinary literals; a binary literal with '?' wildcard digits
// (usable only as a casez label) sets the mask bits of the positions
// that matter.
type Number struct {
	Value    uint64
	Width    int
	CareMask uint64
	Pos      Pos
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	OpNot     UnaryOp = iota // ~
	OpLogNot                 // !
	OpNeg                    // - (two's complement)
	OpRedAnd                 // &
	OpRedOr                  // |
	OpRedXor                 // ^
	OpRedNand                // ~&
	OpRedNor                 // ~|
	OpRedXnor                // ~^
)

// Unary applies a unary operator.
type Unary struct {
	Op UnaryOp
	X  Expr
	Pos
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd    // &
	OpOr     // |
	OpXor    // ^
	OpXnor   // ~^
	OpLogAnd // &&
	OpLogOr  // ||
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpShl
	OpShr
)

// Binary applies a binary operator.
type Binary struct {
	Op   BinaryOp
	L, R Expr
	Pos
}

// Ternary is the conditional operator c ? t : f.
type Ternary struct {
	Cond, Then, Else Expr
	Pos
}

// Index is a bit select or memory-word select: base[idx].
type Index struct {
	Base Expr // Ident in practice
	Idx  Expr
	Pos
}

// PartSelect is a constant part select base[msb:lsb].
type PartSelect struct {
	Base     Expr // Ident in practice
	MSB, LSB Expr
	Pos
}

// Concat is a concatenation {a, b, c} (a[0] is the most significant
// part, per Verilog).
type Concat struct {
	Parts []Expr
	Pos
}

// Repl is a replication {N{x}}.
type Repl struct {
	Count Expr
	X     Expr
	Pos
}

func (*Ident) exprNode()      {}
func (*Number) exprNode()     {}
func (*Unary) exprNode()      {}
func (*Binary) exprNode()     {}
func (*Ternary) exprNode()    {}
func (*Index) exprNode()      {}
func (*PartSelect) exprNode() {}
func (*Concat) exprNode()     {}
func (*Repl) exprNode()       {}
