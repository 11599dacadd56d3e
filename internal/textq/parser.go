package textq

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// parser is a single-token-lookahead recursive-descent parser.
type parser struct {
	lx  *lexer
	tok token
}

func newParser(src string) (*parser, error) {
	p := &parser{lx: newLexer(src)}
	return p, p.advance()
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if p.tok.kind != k {
		return token{}, fmt.Errorf("textq: line %d: expected %s, got %s", p.tok.line, what, p.tok)
	}
	t := p.tok
	return t, p.advance()
}

// isVarName reports whether an identifier denotes a variable: the
// datalog convention, an initial uppercase letter or underscore.
func isVarName(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	return (c >= 'A' && c <= 'Z') || c == '_'
}

// term parses a variable, identifier constant or quoted constant.
func (p *parser) term() (query.Term, error) {
	switch p.tok.kind {
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return query.Term{}, err
		}
		if isVarName(name) {
			return query.Var(name), nil
		}
		return query.C(name), nil
	case tokString:
		val := p.tok.text
		if err := p.advance(); err != nil {
			return query.Term{}, err
		}
		return query.C(val), nil
	default:
		return query.Term{}, fmt.Errorf("textq: line %d: expected a term, got %s", p.tok.line, p.tok)
	}
}

// termList parses "( t, t, … )" (possibly empty).
func (p *parser) termList() ([]query.Term, error) {
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	var out []query.Term
	if p.tok.kind == tokRParen {
		return out, p.advance()
	}
	for {
		t, err := p.term()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return out, nil
}

// bodyItem is one parsed body element: either an atom or a condition.
type bodyItem struct {
	atom *query.RelAtom
	cond *query.EqAtom
}

// body parses "item, item, …" until a terminator token (anything that
// cannot start an item).
func (p *parser) body() ([]bodyItem, error) {
	var out []bodyItem
	for {
		item, err := p.oneBodyItem()
		if err != nil {
			return nil, err
		}
		out = append(out, item)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		return out, nil
	}
}

func (p *parser) oneBodyItem() (bodyItem, error) {
	// Lookahead: Ident '(' → atom (relation names may be capitalized,
	// so case does not decide); otherwise term (=|!=) term.
	if p.tok.kind == tokIdent {
		name := p.tok.text
		save := *p.lx
		saveTok := p.tok
		if err := p.advance(); err != nil {
			return bodyItem{}, err
		}
		if p.tok.kind == tokLParen {
			args, err := p.termList()
			if err != nil {
				return bodyItem{}, err
			}
			a := query.Atom(name, args...)
			return bodyItem{atom: &a}, nil
		}
		// Not an atom: rewind and parse as a condition term.
		*p.lx = save
		p.tok = saveTok
	}
	l, err := p.term()
	if err != nil {
		return bodyItem{}, err
	}
	var neg bool
	switch p.tok.kind {
	case tokEq:
	case tokNeq:
		neg = true
	default:
		return bodyItem{}, fmt.Errorf("textq: line %d: expected '=' or '!=', got %s", p.tok.line, p.tok)
	}
	if err := p.advance(); err != nil {
		return bodyItem{}, err
	}
	r, err := p.term()
	if err != nil {
		return bodyItem{}, err
	}
	e := query.EqAtom{L: l, R: r, Neg: neg}
	return bodyItem{cond: &e}, nil
}

func splitBody(items []bodyItem) (atoms []query.RelAtom, conds []query.EqAtom) {
	for _, it := range items {
		if it.atom != nil {
			atoms = append(atoms, *it.atom)
		} else {
			conds = append(conds, *it.cond)
		}
	}
	return atoms, conds
}

// ParseSchemas parses "rel Name(attr, attr: {v, v}, …)" declarations.
func ParseSchemas(src string) (map[string]*relation.Schema, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*relation.Schema)
	for p.tok.kind != tokEOF {
		kw, err := p.expect(tokIdent, "'rel'")
		if err != nil {
			return nil, err
		}
		if kw.text != "rel" {
			return nil, fmt.Errorf("textq: line %d: expected 'rel', got %q", kw.line, kw.text)
		}
		name, err := p.expect(tokIdent, "relation name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		var attrs []relation.Attribute
		for {
			an, err := p.expect(tokIdent, "attribute name")
			if err != nil {
				return nil, err
			}
			attr := relation.Attr(an.text)
			if p.tok.kind == tokColon {
				if err := p.advance(); err != nil {
					return nil, err
				}
				if _, err := p.expect(tokLBrace, "'{'"); err != nil {
					return nil, err
				}
				var vals []relation.Value
				for {
					v, err := p.term()
					if err != nil {
						return nil, err
					}
					if v.IsVar {
						vals = append(vals, relation.Value(v.Name))
					} else {
						vals = append(vals, v.Val)
					}
					if p.tok.kind == tokComma {
						if err := p.advance(); err != nil {
							return nil, err
						}
						continue
					}
					break
				}
				if _, err := p.expect(tokRBrace, "'}'"); err != nil {
					return nil, err
				}
				attr = relation.Attribute{Name: an.text, Domain: relation.FiniteDomain(vals...)}
			}
			attrs = append(attrs, attr)
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		s := relation.NewSchema(name.text, attrs...)
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if _, dup := out[name.text]; dup {
			return nil, fmt.Errorf("textq: duplicate schema %s", name.text)
		}
		out[name.text] = s
	}
	return out, nil
}

// rule is a parsed "Head(args) :- body" line.
type rule struct {
	head  query.RelAtom
	items []bodyItem
}

func (p *parser) rules(stopAtSubset bool) ([]rule, error) {
	var out []rule
	for p.tok.kind != tokEOF {
		headName, err := p.expect(tokIdent, "rule head")
		if err != nil {
			return nil, err
		}
		headArgs, err := p.termList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokTurnstile, "':-'"); err != nil {
			return nil, err
		}
		items, err := p.body()
		if err != nil {
			return nil, err
		}
		out = append(out, rule{head: query.Atom(headName.text, headArgs...), items: items})
		if stopAtSubset && p.tok.kind == tokSubset {
			return out, nil
		}
	}
	return out, nil
}

// ParseQuery parses one or more CQ rules with the same head predicate
// into a CQ (single rule) or UCQ, or — when the source begins with an
// "output <pred>" directive — a datalog (FP) program. The result is
// validated against the schemas.
func ParseQuery(src string, schemas map[string]*relation.Schema) (qlang.Query, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokIdent && p.tok.text == "output" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		out, err := p.expect(tokIdent, "output predicate")
		if err != nil {
			return nil, err
		}
		rules, err := p.rules(false)
		if err != nil {
			return nil, err
		}
		prog := datalog.NewProgram("Q", out.text)
		for _, r := range rules {
			var body []datalog.Literal
			for _, it := range r.items {
				if it.atom != nil {
					a := *it.atom
					body = append(body, datalog.Literal{Atom: &a})
				} else {
					e := *it.cond
					body = append(body, datalog.Literal{Cond: &e})
				}
			}
			prog.Rules = append(prog.Rules, datalog.Rule{Head: r.head, Body: body})
		}
		if err := prog.Validate(schemas); err != nil {
			return nil, err
		}
		return qlang.FromFP(prog), nil
	}

	rules, err := p.rules(false)
	if err != nil {
		return nil, err
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("textq: no query rules")
	}
	headName := rules[0].head.Rel
	var disjuncts []*cq.CQ
	for i, r := range rules {
		if r.head.Rel != headName {
			return nil, fmt.Errorf("textq: UCQ disjuncts must share the head predicate (%s vs %s)", headName, r.head.Rel)
		}
		atoms, conds := splitBody(r.items)
		disjuncts = append(disjuncts, cq.New(fmt.Sprintf("%s_%d", headName, i+1), r.head.Args, atoms, conds...))
	}
	if len(disjuncts) == 1 {
		q := disjuncts[0]
		q.Name = headName
		if err := q.Validate(schemas); err != nil {
			return nil, err
		}
		return qlang.FromCQ(q), nil
	}
	u := cq.Union(headName, disjuncts...)
	if err := u.Validate(schemas); err != nil {
		return nil, err
	}
	return qlang.FromUCQ(u), nil
}

// ParseConstraints parses containment-constraint lines of the form
//
//	cc name(args) :- body <= Master[col, col]
//	cc name()     :- body <= empty
//
// and validates them against the master data.
func ParseConstraints(src string, schemas map[string]*relation.Schema, dm *relation.Database) (*cc.Set, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	set := cc.NewSet()
	for p.tok.kind != tokEOF {
		kw, err := p.expect(tokIdent, "'cc'")
		if err != nil {
			return nil, err
		}
		if kw.text != "cc" {
			return nil, fmt.Errorf("textq: line %d: expected 'cc', got %q", kw.line, kw.text)
		}
		name, err := p.expect(tokIdent, "constraint name")
		if err != nil {
			return nil, err
		}
		headArgs, err := p.termList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokTurnstile, "':-'"); err != nil {
			return nil, err
		}
		items, err := p.body()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSubset, "'<='"); err != nil {
			return nil, err
		}
		proj, err := p.projection()
		if err != nil {
			return nil, err
		}
		atoms, conds := splitBody(items)
		q := cq.New(name.text, headArgs, atoms, conds...)
		if err := q.Validate(schemas); err != nil {
			return nil, err
		}
		set.Add(cc.FromCQ(name.text, q, proj))
	}
	if err := set.Validate(dm); err != nil {
		return nil, err
	}
	return set, nil
}

// projection parses "empty" or "Name[col, col, …]".
func (p *parser) projection() (cc.Projection, error) {
	name, err := p.expect(tokIdent, "master relation or 'empty'")
	if err != nil {
		return cc.Projection{}, err
	}
	if name.text == "empty" {
		return cc.EmptySet(), nil
	}
	if _, err := p.expect(tokLBracket, "'['"); err != nil {
		return cc.Projection{}, err
	}
	var cols []int
	for {
		t, err := p.expect(tokIdent, "column index")
		if err != nil {
			return cc.Projection{}, err
		}
		var col int
		if _, err := fmt.Sscanf(t.text, "%d", &col); err != nil {
			return cc.Projection{}, fmt.Errorf("textq: line %d: bad column index %q", t.line, t.text)
		}
		cols = append(cols, col)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return cc.Projection{}, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRBracket, "']'"); err != nil {
		return cc.Projection{}, err
	}
	return cc.Proj(name.text, cols...), nil
}
