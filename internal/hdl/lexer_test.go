package hdl

import (
	"strings"
	"testing"
)

// lexAll tokenizes the entire input, returning every token up to and
// excluding EOF.
func lexAll(file, src string) ([]Token, *Lexer, error) {
	l := NewLexer(file, src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, l, err
		}
		if t.Kind == TokEOF {
			return toks, l, nil
		}
		toks = append(toks, t)
	}
}

func TestLexBasicTokens(t *testing.T) {
	src := "module foo (input a); assign b = a & 1'b1; endmodule"
	toks, _, err := lexAll("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{
		TokKeyword, TokIdent, TokLParen, TokKeyword, TokIdent, TokRParen, TokSemi,
		TokKeyword, TokIdent, TokAssign, TokIdent, TokAmp, TokNumber, TokSemi,
		TokKeyword,
	}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: kind %v, want %v (%q)", i, toks[i].Kind, k, toks[i].Text)
		}
	}
}

func TestLexOperators(t *testing.T) {
	src := "&& || == != <= >= << >> ~^ ^~ ~& ~| & | ^ ~ ! < > + - * / % ? :"
	toks, _, err := lexAll("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{
		TokAmpAmp, TokPipePipe, TokEq, TokNeq, TokLe, TokGe, TokShl, TokShr,
		TokXnor, TokXnor, TokNand, TokNor, TokAmp, TokPipe, TokCaret, TokTilde,
		TokBang, TokLt, TokGt, TokPlus, TokMinus, TokStar, TokSlash, TokPercent,
		TokQuestion, TokColon,
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexComments(t *testing.T) {
	src := "a // line comment\n/* block\ncomment */ b"
	toks, _, err := lexAll("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Fatalf("tokens = %v", toks)
	}
	if toks[1].Pos.Line != 3 {
		t.Errorf("b at line %d, want 3", toks[1].Pos.Line)
	}
}

func TestLexUnterminatedBlockComment(t *testing.T) {
	_, _, err := lexAll("t.v", "a /* never closed")
	if err == nil || !strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("want unterminated-comment error, got %v", err)
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		text  string
		value uint64
		width int
	}{
		{"42", 42, 0},
		{"8'hFF", 255, 8},
		{"4'b1010", 10, 4},
		{"12'o777", 511, 12},
		{"16'd1234", 1234, 16},
		{"'d7", 7, 0},
		{"32'hDEAD_BEEF", 0xDEADBEEF, 32},
		{"1_000", 1000, 0},
	}
	for _, c := range cases {
		toks, _, err := lexAll("t.v", c.text)
		if err != nil {
			t.Errorf("%q: %v", c.text, err)
			continue
		}
		if len(toks) != 1 || toks[0].Kind != TokNumber {
			t.Errorf("%q: tokens = %v", c.text, toks)
			continue
		}
		n, err := parseNumberLiteral(toks[0].Text, toks[0].Pos)
		if err != nil {
			t.Errorf("%q: %v", c.text, err)
			continue
		}
		if n.Value != c.value || n.Width != c.width {
			t.Errorf("%q: got (%d,%d), want (%d,%d)", c.text, n.Value, n.Width, c.value, c.width)
		}
	}
}

func TestLexBadNumbers(t *testing.T) {
	for _, text := range []string{"8'q12", "8'", "4'b2", "4'b1111_1"} {
		toks, _, lexErr := lexAll("t.v", text)
		if lexErr != nil {
			continue // rejected at lex time: fine
		}
		if len(toks) == 1 && toks[0].Kind == TokNumber {
			if _, err := parseNumberLiteral(toks[0].Text, toks[0].Pos); err == nil {
				t.Errorf("%q: expected error", text)
			}
		}
	}
}

func TestLexPositions(t *testing.T) {
	src := "ab\n  cd"
	toks, _, err := lexAll("f.v", src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("ab at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("cd at %v", toks[1].Pos)
	}
	if got := toks[1].Pos.String(); got != "f.v:2:3" {
		t.Errorf("Pos.String() = %q", got)
	}
}

func TestLexCodeLines(t *testing.T) {
	src := "a b\n\n// only comment\nc\n/* block */\n"
	toks, _, err := lexAll("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[int]bool{}
	for _, tok := range toks {
		lines[tok.Pos.Line] = true
	}
	if !lines[1] || !lines[4] {
		t.Errorf("lines 1 and 4 must be code lines: %v", lines)
	}
	if lines[2] || lines[3] || lines[5] {
		t.Errorf("blank/comment lines must not count: %v", lines)
	}
}

func TestLexUnexpectedCharacter(t *testing.T) {
	_, _, err := lexAll("t.v", "a $ b\x01")
	if err == nil {
		t.Fatal("expected error for control character")
	}
}

func TestLexWildcardLiterals(t *testing.T) {
	cases := []struct {
		text        string
		value, mask uint64
		width       int
	}{
		{"4'b1??0", 0b1000, 0b1001, 4},
		{"4'b???1", 0b0001, 0b0001, 4},
		{"8'b1010????", 0b10100000, 0b11110000, 8},
	}
	for _, c := range cases {
		toks, _, err := lexAll("t.v", c.text)
		if err != nil {
			t.Fatalf("%q: %v", c.text, err)
		}
		n, err := parseNumberLiteral(toks[0].Text, toks[0].Pos)
		if err != nil {
			t.Fatalf("%q: %v", c.text, err)
		}
		if n.Value != c.value || n.CareMask != c.mask || n.Width != c.width {
			t.Errorf("%q = {value %#b, mask %#b, width %d}, want {%#b, %#b, %d}",
				c.text, n.Value, n.CareMask, n.Width, c.value, c.mask, c.width)
		}
		// Wildcard literals round-trip through the printer.
		if got := FormatExpr(n); got != c.text {
			t.Errorf("FormatExpr(%q) = %q", c.text, got)
		}
	}
	// Wildcards are binary-only.
	toks, _, err := lexAll("t.v", "8'h1?")
	if err == nil {
		if _, perr := parseNumberLiteral(toks[0].Text, toks[0].Pos); perr == nil {
			t.Error("hex wildcard must be rejected")
		}
	}
}
