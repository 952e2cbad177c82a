package hdl

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser for µHDL.
type Parser struct {
	lex *Lexer
	tok Token
}

// ParseError reports a syntax problem with its position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parse parses a µHDL source file and hashes each of its modules once
// (the values Design.ModuleHash reports and Design.StructuralHash and
// Design.DesignPointHash are built from), taking each module's source
// counts (Design.SourceCounts) from the same pass. It is the per-file step of
// both ParseDesign and ParseDesignParallel, which reuse its result for
// unchanged text (see parseMemo).
func Parse(file, src string) (*SourceFile, error) {
	p := &Parser{lex: NewLexer(file, src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	sf := &SourceFile{File: file}
	for p.tok.Kind != TokEOF {
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		sf.Modules = append(sf.Modules, m)
	}
	sf.hashes = make([]moduleHashes, len(sf.Modules))
	for i, m := range sf.Modules {
		sf.hashes[i] = hashModule(m)
	}
	return sf, nil
}

func (p *Parser) next() error {
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.tok.Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) got(kind TokenKind) bool { return p.tok.Kind == kind }

func (p *Parser) gotKeyword(kw string) bool {
	return p.tok.Kind == TokKeyword && p.tok.Text == kw
}

func (p *Parser) accept(kind TokenKind) (bool, error) {
	if p.got(kind) {
		return true, p.next()
	}
	return false, nil
}

func (p *Parser) acceptKeyword(kw string) (bool, error) {
	if p.gotKeyword(kw) {
		return true, p.next()
	}
	return false, nil
}

func (p *Parser) expect(kind TokenKind) (Token, error) {
	if !p.got(kind) {
		return Token{}, p.errorf("expected %s, found %s %q", kind, p.tok.Kind, p.tok.Text)
	}
	t := p.tok
	return t, p.next()
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.gotKeyword(kw) {
		return p.errorf("expected %q, found %s %q", kw, p.tok.Kind, p.tok.Text)
	}
	return p.next()
}

func (p *Parser) expectIdent() (string, Pos, error) {
	if !p.got(TokIdent) {
		return "", p.tok.Pos, p.errorf("expected identifier, found %s %q", p.tok.Kind, p.tok.Text)
	}
	name, pos := p.tok.Text, p.tok.Pos
	return name, pos, p.next()
}

// parseModule parses: module NAME [#(params)] (ports); items endmodule
func (p *Parser) parseModule() (*Module, error) {
	pos := p.tok.Pos
	if err := p.expectKeyword("module"); err != nil {
		return nil, err
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m := &Module{Name: name, Pos: pos}

	if ok, err := p.accept(TokHash); err != nil {
		return nil, err
	} else if ok {
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		for {
			if _, err := p.acceptKeyword("parameter"); err != nil {
				return nil, err
			}
			pname, ppos, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokAssign); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, &ParamDecl{Name: pname, Value: val, Pos: ppos})
			if ok, err := p.accept(TokComma); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}

	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	nonANSI := false
	if p.got(TokIdent) {
		// Verilog-95 style: a bare name list, with directions declared
		// in the module body (PUMA and IVM were written this way).
		nonANSI = true
		if err := p.parseBarePortList(m); err != nil {
			return nil, err
		}
	} else if !p.got(TokRParen) {
		if err := p.parsePortList(m); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}

	for !p.gotKeyword("endmodule") {
		if p.got(TokEOF) {
			return nil, p.errorf("unexpected EOF inside module %s", m.Name)
		}
		items, err := p.parseItem(false)
		if err != nil {
			return nil, err
		}
		m.Items = append(m.Items, items...)
	}
	if err := p.expectKeyword("endmodule"); err != nil {
		return nil, err
	}
	if nonANSI {
		if err := resolveNonANSIPorts(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// parseBarePortList parses a Verilog-95 port name list: (a, b, c).
func (p *Parser) parseBarePortList(m *Module) error {
	for {
		name, pos, err := p.expectIdent()
		if err != nil {
			return err
		}
		m.Ports = append(m.Ports, &Port{Name: name, Dir: Input, Pos: pos})
		if ok, err := p.accept(TokComma); err != nil {
			return err
		} else if !ok {
			return nil
		}
	}
}

// portDecl is a body-level input/output/inout declaration in a
// non-ANSI module. It is consumed by resolveNonANSIPorts and never
// reaches elaboration.
type portDecl struct {
	Dir   PortDir
	Names []string
	Range *Range
	Pos   Pos
}

func (*portDecl) itemNode() {}

// resolveNonANSIPorts merges body port declarations (and reg
// declarations of output ports) into the module's port list, removing
// the consumed items.
func resolveNonANSIPorts(m *Module) error {
	byName := map[string]*Port{}
	for _, port := range m.Ports {
		byName[port.Name] = port
	}
	declared := map[string]bool{}
	var kept []Item
	for _, it := range m.Items {
		pd, ok := it.(*portDecl)
		if !ok {
			// An output declared "reg" keeps its reg NetDecl in the
			// body; mark the port instead and drop the duplicate decl.
			if nd, isNet := it.(*NetDecl); isNet && nd.Kind == KindReg && nd.ArrayRange == nil {
				allPorts := true
				for _, name := range nd.Names {
					if _, isPort := byName[name]; !isPort {
						allPorts = false
					}
				}
				if allPorts && len(nd.Names) > 0 {
					for _, name := range nd.Names {
						byName[name].IsReg = true
					}
					continue
				}
			}
			kept = append(kept, it)
			continue
		}
		for _, name := range pd.Names {
			port, isPort := byName[name]
			if !isPort {
				return &ParseError{Pos: pd.Pos, Msg: fmt.Sprintf("port declaration for %q, which is not in the module's port list", name)}
			}
			if declared[name] {
				return &ParseError{Pos: pd.Pos, Msg: fmt.Sprintf("port %q declared twice", name)}
			}
			declared[name] = true
			port.Dir = pd.Dir
			port.Range = pd.Range
		}
	}
	for _, port := range m.Ports {
		if !declared[port.Name] {
			return &ParseError{Pos: port.Pos, Msg: fmt.Sprintf("port %q has no direction declaration in the module body", port.Name)}
		}
	}
	m.Items = kept
	return nil
}

// parsePortList parses an ANSI port list. Direction, reg-ness, and
// range persist across commas until re-specified.
func (p *Parser) parsePortList(m *Module) error {
	dir := Input
	isReg := false
	var rng *Range
	haveDir := false
	for {
		pos := p.tok.Pos
		changed := false
		switch {
		case p.gotKeyword("input"):
			dir, isReg, rng, changed, haveDir = Input, false, nil, true, true
		case p.gotKeyword("output"):
			dir, isReg, rng, changed, haveDir = Output, false, nil, true, true
		case p.gotKeyword("inout"):
			dir, isReg, rng, changed, haveDir = Inout, false, nil, true, true
		}
		if changed {
			if err := p.next(); err != nil {
				return err
			}
			if ok, err := p.acceptKeyword("wire"); err != nil {
				return err
			} else if !ok {
				if ok, err := p.acceptKeyword("reg"); err != nil {
					return err
				} else if ok {
					isReg = true
				}
			}
			r, err := p.parseOptionalRange()
			if err != nil {
				return err
			}
			rng = r
		}
		if !haveDir {
			return p.errorf("port list must start with a direction keyword")
		}
		name, _, err := p.expectIdent()
		if err != nil {
			return err
		}
		m.Ports = append(m.Ports, &Port{Name: name, Dir: dir, IsReg: isReg, Range: rng, Pos: pos})
		if ok, err := p.accept(TokComma); err != nil {
			return err
		} else if !ok {
			return nil
		}
	}
}

// parseOptionalRange parses [msb:lsb] if present.
func (p *Parser) parseOptionalRange() (*Range, error) {
	if !p.got(TokLBracket) {
		return nil, nil
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	msb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	lsb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRBracket); err != nil {
		return nil, err
	}
	return &Range{MSB: msb, LSB: lsb}, nil
}

// parseItem parses one module item. inGenerate permits bare generate
// control items (for/if) without the generate keyword.
func (p *Parser) parseItem(inGenerate bool) ([]Item, error) {
	pos := p.tok.Pos
	switch {
	case p.gotKeyword("input"), p.gotKeyword("output"), p.gotKeyword("inout"):
		var dir PortDir
		switch p.tok.Text {
		case "input":
			dir = Input
		case "output":
			dir = Output
		default:
			dir = Inout
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		// Optional "wire"/"reg" after the direction; reg marks the
		// ports as registers.
		isReg := false
		if ok, err := p.acceptKeyword("wire"); err != nil {
			return nil, err
		} else if !ok {
			if ok, err := p.acceptKeyword("reg"); err != nil {
				return nil, err
			} else if ok {
				isReg = true
			}
		}
		rng, err := p.parseOptionalRange()
		if err != nil {
			return nil, err
		}
		pd := &portDecl{Dir: dir, Range: rng, Pos: pos}
		for {
			name, _, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			pd.Names = append(pd.Names, name)
			if ok, err := p.accept(TokComma); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		out := []Item{pd}
		if isReg {
			out = append(out, &NetDecl{Kind: KindReg, Names: pd.Names, Range: rng, Pos: pos})
		}
		return out, nil

	case p.gotKeyword("parameter"), p.gotKeyword("localparam"):
		isLocal := p.tok.Text == "localparam"
		if err := p.next(); err != nil {
			return nil, err
		}
		var out []Item
		for {
			name, npos, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokAssign); err != nil {
				return nil, err
			}
			val, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			out = append(out, &ParamDecl{Name: name, Value: val, IsLocal: isLocal, Pos: npos})
			if ok, err := p.accept(TokComma); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return out, nil

	case p.gotKeyword("wire"), p.gotKeyword("reg"), p.gotKeyword("integer"), p.gotKeyword("genvar"):
		var kind NetKind
		switch p.tok.Text {
		case "wire":
			kind = KindWire
		case "reg":
			kind = KindReg
		case "integer":
			kind = KindInteger
		case "genvar":
			kind = KindGenvar
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		rng, err := p.parseOptionalRange()
		if err != nil {
			return nil, err
		}
		decl := &NetDecl{Kind: kind, Range: rng, Pos: pos}
		for {
			name, _, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			decl.Names = append(decl.Names, name)
			// Memory array range directly after the name.
			ar, err := p.parseOptionalRange()
			if err != nil {
				return nil, err
			}
			if ar != nil {
				if len(decl.Names) > 1 {
					return nil, p.errorf("memory array must be declared alone")
				}
				decl.ArrayRange = ar
			}
			if ok, err := p.accept(TokComma); err != nil {
				return nil, err
			} else if !ok {
				break
			}
			if decl.ArrayRange != nil {
				return nil, p.errorf("memory array must be declared alone")
			}
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return []Item{decl}, nil

	case p.gotKeyword("assign"):
		if err := p.next(); err != nil {
			return nil, err
		}
		lhs, err := p.parseLValue()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return []Item{&ContAssign{LHS: lhs, RHS: rhs, Pos: pos}}, nil

	case p.gotKeyword("always"):
		if err := p.next(); err != nil {
			return nil, err
		}
		sens, err := p.parseSensList()
		if err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return []Item{&AlwaysBlock{Sens: sens, Body: body, Pos: pos}}, nil

	case p.gotKeyword("generate"):
		if err := p.next(); err != nil {
			return nil, err
		}
		var out []Item
		for !p.gotKeyword("endgenerate") {
			if p.got(TokEOF) {
				return nil, p.errorf("unexpected EOF inside generate")
			}
			items, err := p.parseItem(true)
			if err != nil {
				return nil, err
			}
			out = append(out, items...)
		}
		if err := p.expectKeyword("endgenerate"); err != nil {
			return nil, err
		}
		return out, nil

	case p.gotKeyword("for"):
		if !inGenerate {
			return nil, p.errorf("for loop outside generate block (procedural for belongs inside always)")
		}
		return p.parseGenFor()

	case p.gotKeyword("if"):
		if !inGenerate {
			return nil, p.errorf("if outside generate block (procedural if belongs inside always)")
		}
		return p.parseGenIf()

	case p.got(TokIdent):
		return p.parseInstance()
	}
	return nil, p.errorf("unexpected %s %q in module body", p.tok.Kind, p.tok.Text)
}

// parseSensList parses @(*) | @(posedge a or negedge b) | @(a or b).
func (p *Parser) parseSensList() ([]SensItem, error) {
	if _, err := p.expect(TokAt); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	if ok, err := p.accept(TokStar); err != nil {
		return nil, err
	} else if ok {
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return []SensItem{{Edge: EdgeAny}}, nil
	}
	var items []SensItem
	for {
		item := SensItem{Edge: EdgeNone}
		if ok, err := p.acceptKeyword("posedge"); err != nil {
			return nil, err
		} else if ok {
			item.Edge = EdgePos
		} else if ok, err := p.acceptKeyword("negedge"); err != nil {
			return nil, err
		} else if ok {
			item.Edge = EdgeNeg
		}
		name, _, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		item.Signal = name
		items = append(items, item)
		if ok, err := p.acceptKeyword("or"); err != nil {
			return nil, err
		} else if ok {
			continue
		}
		if ok, err := p.accept(TokComma); err != nil {
			return nil, err
		} else if ok {
			continue
		}
		break
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return items, nil
}

// parseInstance parses: Mod [#(.P(v), ...)] name (.port(expr), ...);
func (p *Parser) parseInstance() ([]Item, error) {
	pos := p.tok.Pos
	modName, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	inst := &Instance{ModuleName: modName, Pos: pos}
	if ok, err := p.accept(TokHash); err != nil {
		return nil, err
	} else if ok {
		bs, err := p.parseBindings()
		if err != nil {
			return nil, err
		}
		inst.Params = bs
	}
	name, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	inst.Name = name
	bs, err := p.parseBindings()
	if err != nil {
		return nil, err
	}
	inst.Ports = bs
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return []Item{inst}, nil
}

// parseBindings parses (.name(expr), .name(), ...).
func (p *Parser) parseBindings() ([]Binding, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var out []Binding
	if p.got(TokRParen) {
		return out, p.next()
	}
	for {
		if _, err := p.expect(TokDot); err != nil {
			return nil, err
		}
		name, npos, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		b := Binding{Name: name, Pos: npos}
		if !p.got(TokRParen) {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			b.Value = v
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		out = append(out, b)
		if ok, err := p.accept(TokComma); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return out, nil
}

// parseGenFor parses: for (i = e; cond; i = e) begin [: label] items end
func (p *Parser) parseGenFor() ([]Item, error) {
	pos := p.tok.Pos
	if err := p.expectKeyword("for"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	varName, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	initExpr, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	stepVar, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if stepVar != varName {
		return nil, p.errorf("generate for step must assign loop variable %q, got %q", varName, stepVar)
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	step, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	label, body, err := p.parseGenBlock()
	if err != nil {
		return nil, err
	}
	return []Item{&GenFor{Var: varName, Init: initExpr, Cond: cond, Step: step, Label: label, Body: body, Pos: pos}}, nil
}

// parseGenIf parses: if (cond) genblock [else genblock|genif]
func (p *Parser) parseGenIf() ([]Item, error) {
	pos := p.tok.Pos
	if err := p.expectKeyword("if"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	gi := &GenIf{Cond: cond, Pos: pos}
	gi.ThenLabel, gi.Then, err = p.parseGenBlock()
	if err != nil {
		return nil, err
	}
	if ok, err := p.acceptKeyword("else"); err != nil {
		return nil, err
	} else if ok {
		if p.gotKeyword("if") {
			items, err := p.parseGenIf()
			if err != nil {
				return nil, err
			}
			gi.Else = items
		} else {
			gi.ElseLabel, gi.Else, err = p.parseGenBlock()
			if err != nil {
				return nil, err
			}
		}
	}
	return []Item{gi}, nil
}

// parseGenBlock parses either a labeled begin/end item list or a single
// generate item.
func (p *Parser) parseGenBlock() (label string, items []Item, err error) {
	if ok, err := p.acceptKeyword("begin"); err != nil {
		return "", nil, err
	} else if ok {
		if ok, err := p.accept(TokColon); err != nil {
			return "", nil, err
		} else if ok {
			label, _, err = p.expectIdent()
			if err != nil {
				return "", nil, err
			}
		}
		for !p.gotKeyword("end") {
			if p.got(TokEOF) {
				return "", nil, p.errorf("unexpected EOF in generate block")
			}
			sub, err := p.parseItem(true)
			if err != nil {
				return "", nil, err
			}
			items = append(items, sub...)
		}
		return label, items, p.expectKeyword("end")
	}
	items, err = p.parseItem(true)
	return "", items, err
}

// parseStmt parses one behavioral statement.
func (p *Parser) parseStmt() (Stmt, error) {
	pos := p.tok.Pos
	switch {
	case p.gotKeyword("begin"):
		if err := p.next(); err != nil {
			return nil, err
		}
		// Optional block label (ignored semantically).
		if ok, err := p.accept(TokColon); err != nil {
			return nil, err
		} else if ok {
			if _, _, err := p.expectIdent(); err != nil {
				return nil, err
			}
		}
		b := &Block{Pos: pos}
		for !p.gotKeyword("end") {
			if p.got(TokEOF) {
				return nil, p.errorf("unexpected EOF in begin/end block")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			b.Stmts = append(b.Stmts, s)
		}
		return b, p.expectKeyword("end")

	case p.gotKeyword("if"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st := &If{Cond: cond, Then: then, Pos: pos}
		if ok, err := p.acceptKeyword("else"); err != nil {
			return nil, err
		} else if ok {
			st.Else, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return st, nil

	case p.gotKeyword("case"), p.gotKeyword("casez"):
		isCasez := p.tok.Text == "casez"
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		subject, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		cs := &Case{Subject: subject, IsCasez: isCasez, Pos: pos}
		for !p.gotKeyword("endcase") {
			if p.got(TokEOF) {
				return nil, p.errorf("unexpected EOF in case statement")
			}
			item := CaseItem{Pos: p.tok.Pos}
			if ok, err := p.acceptKeyword("default"); err != nil {
				return nil, err
			} else if ok {
				// default's colon is optional in Verilog.
				if _, err := p.accept(TokColon); err != nil {
					return nil, err
				}
			} else {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					item.Exprs = append(item.Exprs, e)
					if ok, err := p.accept(TokComma); err != nil {
						return nil, err
					} else if !ok {
						break
					}
				}
				if _, err := p.expect(TokColon); err != nil {
					return nil, err
				}
			}
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			item.Body = body
			cs.Items = append(cs.Items, item)
		}
		return cs, p.expectKeyword("endcase")

	case p.gotKeyword("for"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		initStmt, err := p.parseSimpleAssign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		step, err := p.parseSimpleAssign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &For{Init: initStmt, Cond: cond, Step: step, Body: body, Pos: pos}, nil
	}

	// Assignment statement.
	st, err := p.parseSimpleAssign()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return st, nil
}

// parseSimpleAssign parses "lhs = rhs" or "lhs <= rhs" without the
// trailing semicolon (shared by for headers and plain statements).
func (p *Parser) parseSimpleAssign() (Stmt, error) {
	pos := p.tok.Pos
	lhs, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	blocking := true
	if ok, err := p.accept(TokAssign); err != nil {
		return nil, err
	} else if !ok {
		if ok, err := p.accept(TokLe); err != nil {
			return nil, err
		} else if ok {
			blocking = false
		} else {
			return nil, p.errorf("expected '=' or '<=' in assignment")
		}
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Assign{LHS: lhs, RHS: rhs, Blocking: blocking, Pos: pos}, nil
}

// parseLValue parses an assignable expression: identifier with optional
// bit/part select or memory index, or a concatenation of lvalues.
func (p *Parser) parseLValue() (Expr, error) {
	if p.got(TokLBrace) {
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		c := &Concat{Pos: pos}
		for {
			e, err := p.parseLValue()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
			if ok, err := p.accept(TokComma); err != nil {
				return nil, err
			} else if !ok {
				break
			}
		}
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
		return c, nil
	}
	name, pos, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	var base Expr = &Ident{Name: name, Pos: pos}
	return p.parseSelectSuffix(base)
}

// parseSelectSuffix parses zero or more [i] / [m:l] suffixes on base.
func (p *Parser) parseSelectSuffix(base Expr) (Expr, error) {
	for p.got(TokLBracket) {
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if ok, err := p.accept(TokColon); err != nil {
			return nil, err
		} else if ok {
			lsb, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			base = &PartSelect{Base: base, MSB: first, LSB: lsb, Pos: pos}
			continue
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, err
		}
		base = &Index{Base: base, Idx: first, Pos: pos}
	}
	return base, nil
}

// Operator precedence levels, lowest first. The ternary is handled
// separately above level 0.
var binaryPrecedence = map[TokenKind]struct {
	prec int
	op   BinaryOp
}{
	TokPipePipe: {1, OpLogOr},
	TokAmpAmp:   {2, OpLogAnd},
	TokPipe:     {3, OpOr},
	TokCaret:    {4, OpXor},
	TokXnor:     {4, OpXnor},
	TokAmp:      {5, OpAnd},
	TokEq:       {6, OpEq},
	TokNeq:      {6, OpNeq},
	TokLt:       {7, OpLt},
	TokLe:       {7, OpLe},
	TokGt:       {7, OpGt},
	TokGe:       {7, OpGe},
	TokShl:      {8, OpShl},
	TokShr:      {8, OpShr},
	TokPlus:     {9, OpAdd},
	TokMinus:    {9, OpSub},
	TokStar:     {10, OpMul},
	TokSlash:    {10, OpDiv},
	TokPercent:  {10, OpMod},
}

// parseExpr parses a full expression including ternaries.
func (p *Parser) parseExpr() (Expr, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.got(TokQuestion) {
		return cond, nil
	}
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	thenE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	elseE, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Ternary{Cond: cond, Then: thenE, Else: elseE, Pos: pos}, nil
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		info, ok := binaryPrecedence[p.tok.Kind]
		if !ok || info.prec < minPrec {
			return lhs, nil
		}
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		rhs, err := p.parseBinary(info.prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: info.op, L: lhs, R: rhs, Pos: pos}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	pos := p.tok.Pos
	var op UnaryOp
	switch p.tok.Kind {
	case TokTilde:
		op = OpNot
	case TokBang:
		op = OpLogNot
	case TokMinus:
		op = OpNeg
	case TokAmp:
		op = OpRedAnd
	case TokPipe:
		op = OpRedOr
	case TokCaret:
		op = OpRedXor
	case TokNand:
		op = OpRedNand
	case TokNor:
		op = OpRedNor
	case TokXnor:
		op = OpRedXnor
	case TokPlus:
		// Unary plus is a no-op.
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.parseUnary()
	default:
		return p.parsePrimary()
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return &Unary{Op: op, X: x, Pos: pos}, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	pos := p.tok.Pos
	switch {
	case p.got(TokNumber):
		num, err := parseNumberLiteral(p.tok.Text, pos)
		if err != nil {
			return nil, err
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return num, nil

	case p.got(TokIdent):
		name := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		return p.parseSelectSuffix(&Ident{Name: name, Pos: pos})

	case p.got(TokLParen):
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil

	case p.got(TokLBrace):
		if err := p.next(); err != nil {
			return nil, err
		}
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// {N{x}} replication: a second { follows the count.
		if p.got(TokLBrace) {
			if err := p.next(); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBrace); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBrace); err != nil {
				return nil, err
			}
			return &Repl{Count: first, X: x, Pos: pos}, nil
		}
		c := &Concat{Parts: []Expr{first}, Pos: pos}
		for {
			if ok, err := p.accept(TokComma); err != nil {
				return nil, err
			} else if !ok {
				break
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
		}
		if _, err := p.expect(TokRBrace); err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, p.errorf("unexpected %s %q in expression", p.tok.Kind, p.tok.Text)
}

// parseNumberLiteral converts literal text like "42", "8'hFF",
// "4'b10_10", or "'d7" to a Number.
func parseNumberLiteral(text string, pos Pos) (*Number, error) {
	q := strings.IndexByte(text, '\'')
	if q < 0 {
		clean := strings.ReplaceAll(text, "_", "")
		v, err := strconv.ParseUint(clean, 10, 64)
		if err != nil {
			return nil, &ParseError{Pos: pos, Msg: fmt.Sprintf("invalid number %q: %v", text, err)}
		}
		return &Number{Value: v, Pos: pos}, nil
	}
	width := 0
	if q > 0 {
		w, err := strconv.Atoi(strings.ReplaceAll(text[:q], "_", ""))
		if err != nil || w <= 0 || w > 64 {
			return nil, &ParseError{Pos: pos, Msg: fmt.Sprintf("invalid width in %q", text)}
		}
		width = w
	}
	if q+1 >= len(text) {
		return nil, &ParseError{Pos: pos, Msg: fmt.Sprintf("truncated literal %q", text)}
	}
	baseCh := text[q+1]
	digits := strings.ReplaceAll(text[q+2:], "_", "")
	var base int
	switch baseCh {
	case 'b', 'B':
		base = 2
	case 'o', 'O':
		base = 8
	case 'd', 'D':
		base = 10
	case 'h', 'H':
		base = 16
	default:
		return nil, &ParseError{Pos: pos, Msg: fmt.Sprintf("invalid base %q in %q", baseCh, text)}
	}
	if strings.ContainsRune(digits, '?') {
		// Binary wildcard literal for casez labels: 4'b1??0.
		if base != 2 {
			return nil, &ParseError{Pos: pos, Msg: fmt.Sprintf("wildcard digits require a binary literal, got %q", text)}
		}
		if width == 0 {
			width = len(digits)
		}
		if len(digits) > width {
			return nil, &ParseError{Pos: pos, Msg: fmt.Sprintf("literal %q wider than its declared width", text)}
		}
		var value, mask uint64
		for _, ch := range digits {
			value <<= 1
			mask <<= 1
			switch ch {
			case '0':
				mask |= 1
			case '1':
				value |= 1
				mask |= 1
			case '?':
			default:
				return nil, &ParseError{Pos: pos, Msg: fmt.Sprintf("invalid wildcard digit %q in %q", ch, text)}
			}
		}
		// High bits above the written digits are do-not-care... no:
		// Verilog zero-extends; unwritten high bits are cared-for 0s.
		high := width - len(digits)
		if high > 0 && width <= 64 {
			mask |= ((uint64(1) << uint(high)) - 1) << uint(len(digits))
		}
		return &Number{Value: value, Width: width, CareMask: mask, Pos: pos}, nil
	}
	v, err := strconv.ParseUint(digits, base, 64)
	if err != nil {
		return nil, &ParseError{Pos: pos, Msg: fmt.Sprintf("invalid digits in %q: %v", text, err)}
	}
	if width > 0 && width < 64 && v >= 1<<uint(width) {
		return nil, &ParseError{Pos: pos, Msg: fmt.Sprintf("value %d does not fit in %d bits", v, width)}
	}
	return &Number{Value: v, Width: width, Pos: pos}, nil
}
