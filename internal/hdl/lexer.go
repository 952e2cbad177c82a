package hdl

import (
	"fmt"
	"strings"
)

// Lexer turns µHDL source text into tokens. Comments (// and /* */)
// and whitespace are skipped.
type Lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src. file is used in positions and
// error messages.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// A LexError reports a lexical problem with its position.
type LexError struct {
	Pos Pos
	Msg string
}

func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func (l *Lexer) pos() Pos { return Pos{File: l.file, Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &LexError{Pos: start, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') || c == '$' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.peek()

	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		if keywords[text] {
			return Token{Kind: TokKeyword, Text: text, Pos: pos}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: pos}, nil

	case isDigit(c) || c == '\'':
		return l.lexNumber(pos)
	}

	l.advance()
	two := func(next byte, twoKind, oneKind TokenKind) (Token, error) {
		if l.peek() == next {
			l.advance()
			return Token{Kind: twoKind, Pos: pos}, nil
		}
		return Token{Kind: oneKind, Pos: pos}, nil
	}

	switch c {
	case '(':
		return Token{Kind: TokLParen, Pos: pos}, nil
	case ')':
		return Token{Kind: TokRParen, Pos: pos}, nil
	case '[':
		return Token{Kind: TokLBracket, Pos: pos}, nil
	case ']':
		return Token{Kind: TokRBracket, Pos: pos}, nil
	case '{':
		return Token{Kind: TokLBrace, Pos: pos}, nil
	case '}':
		return Token{Kind: TokRBrace, Pos: pos}, nil
	case ';':
		return Token{Kind: TokSemi, Pos: pos}, nil
	case ',':
		return Token{Kind: TokComma, Pos: pos}, nil
	case ':':
		return Token{Kind: TokColon, Pos: pos}, nil
	case '.':
		return Token{Kind: TokDot, Pos: pos}, nil
	case '#':
		return Token{Kind: TokHash, Pos: pos}, nil
	case '@':
		return Token{Kind: TokAt, Pos: pos}, nil
	case '?':
		return Token{Kind: TokQuestion, Pos: pos}, nil
	case '+':
		return Token{Kind: TokPlus, Pos: pos}, nil
	case '-':
		return Token{Kind: TokMinus, Pos: pos}, nil
	case '*':
		return Token{Kind: TokStar, Pos: pos}, nil
	case '/':
		return Token{Kind: TokSlash, Pos: pos}, nil
	case '%':
		return Token{Kind: TokPercent, Pos: pos}, nil
	case '&':
		return two('&', TokAmpAmp, TokAmp)
	case '|':
		return two('|', TokPipePipe, TokPipe)
	case '^':
		if l.peek() == '~' {
			l.advance()
			return Token{Kind: TokXnor, Pos: pos}, nil
		}
		return Token{Kind: TokCaret, Pos: pos}, nil
	case '~':
		switch l.peek() {
		case '^':
			l.advance()
			return Token{Kind: TokXnor, Pos: pos}, nil
		case '&':
			l.advance()
			return Token{Kind: TokNand, Pos: pos}, nil
		case '|':
			l.advance()
			return Token{Kind: TokNor, Pos: pos}, nil
		}
		return Token{Kind: TokTilde, Pos: pos}, nil
	case '!':
		return two('=', TokNeq, TokBang)
	case '=':
		return two('=', TokEq, TokAssign)
	case '<':
		switch l.peek() {
		case '=':
			l.advance()
			return Token{Kind: TokLe, Pos: pos}, nil
		case '<':
			l.advance()
			return Token{Kind: TokShl, Pos: pos}, nil
		}
		return Token{Kind: TokLt, Pos: pos}, nil
	case '>':
		switch l.peek() {
		case '=':
			l.advance()
			return Token{Kind: TokGe, Pos: pos}, nil
		case '>':
			l.advance()
			return Token{Kind: TokShr, Pos: pos}, nil
		}
		return Token{Kind: TokGt, Pos: pos}, nil
	}
	return Token{}, &LexError{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", c)}
}

// lexNumber handles plain decimal (42), sized/based literals (8'hFF,
// 4'b1010, 'd7), and based literals with underscores (16'hDEAD_BEEF).
func (l *Lexer) lexNumber(pos Pos) (Token, error) {
	start := l.off
	for l.off < len(l.src) && (isDigit(l.peek()) || l.peek() == '_') {
		l.advance()
	}
	if l.peek() == '\'' {
		l.advance() // consume '
		base := l.peek()
		switch base {
		case 'b', 'B', 'o', 'O', 'd', 'D', 'h', 'H':
			l.advance()
		default:
			return Token{}, &LexError{Pos: l.pos(), Msg: fmt.Sprintf("invalid number base %q", base)}
		}
		digitsStart := l.off
		for l.off < len(l.src) && (isIdentPart(l.peek()) || l.peek() == '_' || l.peek() == '?') {
			l.advance()
		}
		if l.off == digitsStart {
			return Token{}, &LexError{Pos: l.pos(), Msg: "based literal has no digits"}
		}
	}
	text := l.src[start:l.off]
	if strings.HasPrefix(text, "_") {
		return Token{}, &LexError{Pos: pos, Msg: "number cannot start with underscore"}
	}
	return Token{Kind: TokNumber, Text: text, Pos: pos}, nil
}
