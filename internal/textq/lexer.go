// Package textq provides a small text syntax — and its parser — for
// schemas, databases, queries (CQ/UCQ/FP) and containment constraints,
// used by the command-line tools and the examples:
//
//	# schemas                     (attribute domains default to infinite)
//	rel Supt(eid, dept, cid)
//	rel F(p: {0, 1})
//
//	# facts
//	Supt(e0, sales, c1).
//
//	# queries: uppercase identifiers are variables, everything else is
//	# a constant; several rules with the same head form a UCQ
//	Q(C) :- Supt(E, D, C), E = e0, C != c9
//
//	# datalog (FP): an output directive turns rules into a program
//	output Above
//	Up(X, Y)  :- Manage(X, Y)
//	Up(X, Y)  :- Manage(X, Z), Up(Z, Y)
//	Above(X)  :- Up(X, e0)
//
//	# containment constraints: right-hand side after <= names a master
//	# relation projection, or "empty" for ⊆ ∅
//	cc phi0(C) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01 <= DCust[0]
//	cc phi1()  :- Supt(E, D1, C1), Supt(E, D2, C2), C1 != C2 <= empty
//
// Schemas, queries and constraints go through the lexer and the
// recursive-descent parser. Facts have their own single-pass scanner:
// ParseFacts is the one fact parser, used for databases and master
// data alike (ParseProblem, the server's request and mutation bodies,
// mining evidence). It accepts the fact grammar of the lexer and
// parser and reports the same errors.
package textq

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString // quoted constant
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBracket
	tokRBracket
	tokComma
	tokColon
	tokDot
	tokTurnstile // :-
	tokEq        // =
	tokNeq       // !=
	tokSubset    // <=
)

type token struct {
	kind tokenKind
	text string
	pos  int
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("textq: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

// next returns the next token, skipping whitespace and # comments.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line}, nil
scan:
	start := l.pos
	mk := func(k tokenKind, n int) (token, error) {
		t := token{kind: k, text: l.src[start : start+n], pos: start, line: l.line}
		l.pos += n
		return t, nil
	}
	c := l.src[l.pos]
	switch c {
	case '(':
		return mk(tokLParen, 1)
	case ')':
		return mk(tokRParen, 1)
	case '{':
		return mk(tokLBrace, 1)
	case '}':
		return mk(tokRBrace, 1)
	case '[':
		return mk(tokLBracket, 1)
	case ']':
		return mk(tokRBracket, 1)
	case ',':
		return mk(tokComma, 1)
	case '.':
		return mk(tokDot, 1)
	case '=':
		return mk(tokEq, 1)
	case ':':
		if strings.HasPrefix(l.src[l.pos:], ":-") {
			return mk(tokTurnstile, 2)
		}
		return mk(tokColon, 1)
	case '!':
		if strings.HasPrefix(l.src[l.pos:], "!=") {
			return mk(tokNeq, 2)
		}
		return token{}, l.errf("unexpected '!'")
	case '<':
		if strings.HasPrefix(l.src[l.pos:], "<=") {
			return mk(tokSubset, 2)
		}
		return token{}, l.errf("unexpected '<'")
	case '\'', '"':
		quote := c
		i := l.pos + 1
		for i < len(l.src) && l.src[i] != quote {
			if l.src[i] == '\n' {
				return token{}, l.errf("unterminated string")
			}
			i++
		}
		if i == len(l.src) {
			return token{}, l.errf("unterminated string")
		}
		t := token{kind: tokString, text: l.src[l.pos+1 : i], pos: l.pos, line: l.line}
		l.pos = i + 1
		return t, nil
	}
	if identByte[c] {
		i := l.pos
		for i < len(l.src) && identByte[l.src[i]] {
			i++
		}
		t := token{kind: tokIdent, text: l.src[l.pos:i], pos: l.pos, line: l.line}
		l.pos = i
		return t, nil
	}
	return token{}, l.errf("unexpected character %q", c)
}

// identByte is the one classifier of bare identifier text: the lexer,
// the fact scanner and the formatter's quoteIfNeeded all read a value
// byte by byte through it. A byte counts as the Latin-1 character of
// the same number: letters, digits, '_' and '-' are identifier bytes.
// A UTF-8 letter may thus be split across an identifier byte and a
// non-identifier one (the © byte of "é"), so the formatter quotes every
// value holding a byte outside the table instead of classifying runes.
var identByte = func() (t [256]bool) {
	for i := range t {
		r := rune(i)
		t[i] = unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
	}
	return t
}()
