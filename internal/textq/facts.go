package textq

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// ParseFacts parses fact lines "Name(v, v, …)." against schemas into a
// database over the schema set; an empty source yields an empty
// database. It is the one fact parser: request databases, master data,
// mutation bodies and mining evidence all come through it.
//
// The grammar is the fact grammar of the query lexer and parser: #
// comments and whitespace (CR included) between tokens, constants as
// identifiers (those that look like variables included) or quoted
// values, which may not span a line, and "Name()." for an empty tuple.
// It scans the source in one pass, checks each fact against its schema
// as it goes, and interns every value of the source at once
// (relation.Dict.InternAll) before adding the rows by id. Errors,
// and which of several errors is reported, are those of a
// one-token-lookahead parse: the token after a fact's '.' is read
// before the fact is checked, so a lexing error there wins over the
// fact's schema error.
func ParseFacts(src string, schemas map[string]*relation.Schema) (*relation.Database, error) {
	ss := make([]*relation.Schema, 0, len(schemas))
	for _, s := range schemas {
		ss = append(ss, s)
	}
	d := relation.NewDatabase(ss...)
	sc := factScanner{src: src, line: 1}
	// Every fact has a '(' and a value per ',' or one more, so the
	// counts bound both lists (a quoted ',' or one in a comment only
	// overestimates).
	nf := strings.Count(src, "(")
	vals := make([]relation.Value, 0, nf+strings.Count(src, ",")) // every fact's values, fact after fact
	facts := make([]*relation.Instance, 0, nf)                    // the instance of each fact
	var in *relation.Instance                                     // the last fact's instance
	k, a, b, err := sc.next()
	for err == nil && k != tokEOF {
		if k != tokIdent {
			return nil, sc.expected("relation name", k, a, b)
		}
		name := src[a:b]
		if k, a, b, err = sc.next(); err != nil {
			return nil, err
		}
		if k != tokLParen {
			return nil, sc.expected("'('", k, a, b)
		}
		if k, a, b, err = sc.next(); err != nil {
			return nil, err
		}
		off := len(vals)
		if k != tokRParen {
			for {
				if k != tokIdent && k != tokString {
					return nil, sc.expected("a term", k, a, b)
				}
				vals = append(vals, relation.Value(src[a:b]))
				if k, a, b, err = sc.next(); err != nil {
					return nil, err
				}
				if k != tokComma {
					break
				}
				if k, a, b, err = sc.next(); err != nil {
					return nil, err
				}
			}
			if k != tokRParen {
				return nil, sc.expected("')'", k, a, b)
			}
		}
		if k, a, b, err = sc.next(); err != nil {
			return nil, err
		}
		if k != tokDot {
			return nil, sc.expected("'.'", k, a, b)
		}
		// Read the next token before checking the fact (see above).
		k, a, b, err = sc.next()
		if err != nil {
			return nil, err
		}
		if in == nil || in.Schema.Name != name {
			if in = d.Instance(name); in == nil {
				return nil, fmt.Errorf("relation: unknown relation %s", name)
			}
		}
		if err := in.Schema.Check(relation.Tuple(vals[off:])); err != nil {
			return nil, err
		}
		facts = append(facts, in)
	}
	if err != nil {
		return nil, err
	}
	ids := make([]int32, len(vals))
	relation.Shared().InternAll(ids, vals)
	for _, in = range facts {
		n := in.Schema.Arity()
		in.AddIDs(ids[:n])
		ids = ids[n:]
	}
	return d, nil
}

// factScanner reads the tokens of a fact list as the query lexer does,
// reporting each as its kind and the span of its text, so no token
// text is copied.
type factScanner struct {
	src  string
	pos  int
	line int
}

// next skips whitespace and comments and scans one token: its kind and
// the span of its text (for a quoted value, the span between the
// quotes). At the end of the source it returns tokEOF.
func (s *factScanner) next() (k tokenKind, start, end int, err error) {
	src, i := s.src, s.pos
	for i < len(src) {
		c := src[i]
		if c == '#' {
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		}
		if c == '\n' {
			s.line++
		} else if c != ' ' && c != '\t' && c != '\r' {
			break
		}
		i++
	}
	if i == len(src) {
		s.pos = i
		return tokEOF, i, i, nil
	}
	c := src[i]
	if identByte[c] {
		j := i + 1
		for j < len(src) && identByte[src[j]] {
			j++
		}
		s.pos = j
		return tokIdent, i, j, nil
	}
	n := 1
	switch c {
	case '(':
		k = tokLParen
	case ')':
		k = tokRParen
	case ',':
		k = tokComma
	case '.':
		k = tokDot
	case '{':
		k = tokLBrace
	case '}':
		k = tokRBrace
	case '[':
		k = tokLBracket
	case ']':
		k = tokRBracket
	case '=':
		k = tokEq
	case ':':
		k = tokColon
		if i+1 < len(src) && src[i+1] == '-' {
			k, n = tokTurnstile, 2
		}
	case '!', '<':
		if i+1 == len(src) || src[i+1] != '=' {
			return 0, 0, 0, s.errf("unexpected '%c'", c)
		}
		k, n = tokNeq, 2
		if c == '<' {
			k = tokSubset
		}
	case '\'', '"':
		j := i + 1
		for j < len(src) && src[j] != c {
			if src[j] == '\n' {
				return 0, 0, 0, s.errf("unterminated string")
			}
			j++
		}
		if j == len(src) {
			return 0, 0, 0, s.errf("unterminated string")
		}
		s.pos = j + 1
		return tokString, i + 1, j, nil
	default:
		return 0, 0, 0, s.errf("unexpected character %q", c)
	}
	s.pos = i + n
	return k, i, i + n, nil
}

func (s *factScanner) errf(format string, args ...any) error {
	return fmt.Errorf("textq: line %d: %s", s.line, fmt.Sprintf(format, args...))
}

// expected is the parser's error for a token of the wrong kind, naming
// the token as token.String does.
func (s *factScanner) expected(what string, k tokenKind, start, end int) error {
	got := s.src[start:end]
	switch k {
	case tokEOF:
		got = "end of input"
	case tokString:
		got = fmt.Sprintf("%q", got)
	}
	return fmt.Errorf("textq: line %d: expected %s, got %s", s.line, what, got)
}
