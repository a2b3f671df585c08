// Package sql is the declarative front end of the reproduction: a
// hand-written lexer and recursive-descent parser for the SQL subset
// covering the paper's workload shapes, a planner that binds against
// the internal/tpch catalog and lowers onto an engine-neutral
// relop.Pipeline, a cost model that predicts each profiled engine's
// top-down cycle breakdown with internal/tmam before anything runs,
// and an executor that dispatches the pipeline to the compiled or
// vectorized engine's generalized operators — so ad-hoc queries run
// for real over the generated data and report micro-architectural
// events exactly like the hardcoded paper workloads.
package sql

import (
	"fmt"
	"strings"
)

// Pos is a 1-based source position.
type Pos struct {
	Line, Col int
}

// String renders the position the way errors cite it.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Errorf builds a parse/bind error anchored at a position.
func (p Pos) Errorf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
}

// tokKind enumerates token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString // '...'
	tokSymbol // punctuation and operators, in tok.text
)

// token is one lexed token.
type token struct {
	kind tokKind
	text string // keywords lowercased; symbols verbatim
	pos  Pos
}

// keywords recognized case-insensitively.
var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "and": true,
	"between": true, "join": true, "on": true, "group": true,
	"by": true, "as": true, "sum": true, "count": true, "min": true,
	"max": true, "date": true, "explain": true, "analyze": true,
	"having": true,
	"order":  true, "limit": true, "asc": true, "desc": true,
}

// lexer scans SQL text into tokens with positions.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) advance() byte {
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

func (l *lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token or a lexical error.
func (l *lexer) next() (token, error) {
	for l.off < len(l.src) {
		switch c := l.peek(); {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.off+1 < len(l.src) && l.src[l.off+1] == '-':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			goto scan
		}
	}
scan:
	if l.off >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos()}, nil
	}
	p := l.pos()
	c := l.peek()
	switch {
	case isLetter(c):
		start := l.off
		for l.off < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		// Words are ASCII; an already-lowercase one is returned as a
		// substring of src, with no copy.
		low := strings.ToLower(l.src[start:l.off])
		if keywords[low] {
			return token{kind: tokKeyword, text: low, pos: p}, nil
		}
		return token{kind: tokIdent, text: low, pos: p}, nil
	case isDigit(c):
		start := l.off
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.off < len(l.src) && (isLetter(l.peek()) || l.peek() == '.') {
			return token{}, p.Errorf("malformed number %q", l.src[start:l.off+1])
		}
		return token{kind: tokNumber, text: l.src[start:l.off], pos: p}, nil
	case c == '\'':
		l.advance()
		start := l.off
		for l.off < len(l.src) && l.peek() != '\'' {
			l.advance()
		}
		if l.off >= len(l.src) {
			return token{}, p.Errorf("unterminated string literal")
		}
		s := l.src[start:l.off]
		l.advance()
		return token{kind: tokString, text: s, pos: p}, nil
	case c == '<':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return token{kind: tokSymbol, text: "<=", pos: p}, nil
		}
		if l.peek() == '>' {
			l.advance()
			return token{kind: tokSymbol, text: "<>", pos: p}, nil
		}
		return token{kind: tokSymbol, text: "<", pos: p}, nil
	case c == '>':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return token{kind: tokSymbol, text: ">=", pos: p}, nil
		}
		return token{kind: tokSymbol, text: ">", pos: p}, nil
	case c == '!':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return token{kind: tokSymbol, text: "<>", pos: p}, nil
		}
		return token{}, p.Errorf("unexpected character %q", "!")
	case c == '(' || c == ')' || c == ',' || c == '*' || c == '+' ||
		c == '-' || c == '/' || c == '=' || c == '.' || c == ';' ||
		c == '?':
		l.advance()
		return token{kind: tokSymbol, text: string(c), pos: p}, nil
	default:
		l.advance()
		return token{}, p.Errorf("unexpected character %q", string(c))
	}
}

// lexAll scans the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	toks := make([]token, 0, len(src)/4+2)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
