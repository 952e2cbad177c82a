package hdl

// CountStmts counts the statement nodes of a module, the paper's Stmts
// metric as internal/srcmetrics defines it: declarations (each header
// parameter included), continuous assignments, procedural
// assignments, if, case (plus one per case item), for loops, always
// blocks, module instantiations, and generate constructs each count
// as one; begin/end blocks and expressions do not. Parse counts each
// module once; Design.SourceCounts reports the count.
func CountStmts(m *Module) int {
	n := len(m.Params)
	for _, it := range m.Items {
		n += countItem(it)
	}
	return n
}

func countItem(it Item) int {
	switch v := it.(type) {
	case *ParamDecl, *NetDecl, *ContAssign, *Instance:
		return 1
	case *AlwaysBlock:
		return 1 + countStmt(v.Body)
	case *GenFor:
		n := 1
		for _, sub := range v.Body {
			n += countItem(sub)
		}
		return n
	case *GenIf:
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

func countStmt(s Stmt) int {
	switch v := s.(type) {
	case *Block:
		n := 0
		for _, sub := range v.Stmts {
			n += countStmt(sub)
		}
		return n
	case *Assign:
		return 1
	case *If:
		n := 1 + countStmt(v.Then)
		if v.Else != nil {
			n += countStmt(v.Else)
		}
		return n
	case *Case:
		n := 1
		for _, item := range v.Items {
			n += 1 + countStmt(item.Body)
		}
		return n
	case *For:
		// The init and step assignments are part of the loop header;
		// count the loop itself plus its body.
		return 1 + countStmt(v.Body)
	}
	return 0
}
