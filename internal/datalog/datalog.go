// Package datalog implements FP, the datalog query language of Section
// 2.1(f) of Fan & Geerts: collections of rules p(x̄) ← p₁(x̄₁), …,
// p_n(x̄_n) whose body predicates are EDB relation atoms, IDB
// predicates, or (in)equality atoms, evaluated with the inflationary
// fixpoint semantics (semi-naively).
package datalog

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/cq"
	"repro/internal/query"
	"repro/internal/relation"
)

// Literal is one body literal: either a relation/IDB atom or an
// (in)equality.
type Literal struct {
	Atom *query.RelAtom // nil when Cond is used
	Cond *query.EqAtom  // nil when Atom is used
}

// L wraps a relation or IDB atom as a literal.
func L(rel string, args ...query.Term) Literal {
	a := query.Atom(rel, args...)
	return Literal{Atom: &a}
}

// LEq wraps an equality literal.
func LEq(l, r query.Term) Literal {
	e := query.Eq(l, r)
	return Literal{Cond: &e}
}

// LNeq wraps an inequality literal.
func LNeq(l, r query.Term) Literal {
	e := query.Neq(l, r)
	return Literal{Cond: &e}
}

func (l Literal) String() string {
	if l.Atom != nil {
		return l.Atom.String()
	}
	return l.Cond.String()
}

// Rule is one datalog rule.
type Rule struct {
	Head query.RelAtom
	Body []Literal
}

// NewRule builds a rule.
func NewRule(head query.RelAtom, body ...Literal) Rule { return Rule{Head: head, Body: body} }

func (r Rule) String() string {
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " <- " + strings.Join(parts, ", ")
}

// Program is a datalog query: a set of rules plus a designated output
// IDB predicate.
type Program struct {
	Name   string
	Rules  []Rule
	Output string // output IDB predicate name

	// the compiled rules, built on the first evaluation (see EvalGate)
	compileOnce sync.Once
	compiled    *plan
	compileErr  error
}

// NewProgram builds a program.
func NewProgram(name string, output string, rules ...Rule) *Program {
	if name == "" {
		name = "P"
	}
	return &Program{Name: name, Rules: rules, Output: output}
}

func (p *Program) String() string {
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n")
}

// idbSchemas returns one schema per IDB predicate (every head
// predicate), in order of first head occurrence. It fails when one IDB
// heads rules of two arities.
func (p *Program) idbSchemas() ([]*relation.Schema, error) {
	var out []*relation.Schema
	at := make(map[string]int)
	for _, r := range p.Rules {
		i, ok := at[r.Head.Rel]
		if !ok {
			at[r.Head.Rel] = len(out)
			out = append(out, anySchema(r.Head.Rel, len(r.Head.Args)))
		} else if ar := out[i].Arity(); ar != len(r.Head.Args) {
			return nil, fmt.Errorf("datalog %s: IDB %s used with arities %d and %d", p.Name, r.Head.Rel, ar, len(r.Head.Args))
		}
	}
	return out, nil
}

// anySchema returns a schema of the given arity whose attributes all
// have the infinite domain.
func anySchema(name string, arity int) *relation.Schema {
	attrs := make([]relation.Attribute, arity)
	for i := range attrs {
		attrs[i] = relation.Attr(fmt.Sprintf("c%d", i))
	}
	return relation.NewSchema(name, attrs...)
}

// ruleCQs returns each rule as a CQ named after its head predicate: the
// head, the relation and IDB atoms, and the (in)equality literals as
// conditions. Each is checked by cq.CQ.Validate against edb plus the
// IDB schemas, which rejects unknown predicates, wrong arities and
// unsafe rules.
func (p *Program) ruleCQs(edb map[string]*relation.Schema, idb []*relation.Schema) ([]*cq.CQ, error) {
	schemas := make(map[string]*relation.Schema, len(edb)+len(idb))
	for name, s := range edb {
		schemas[name] = s
	}
	for _, s := range idb {
		schemas[s.Name] = s
	}
	qs := make([]*cq.CQ, len(p.Rules))
	for i, r := range p.Rules {
		var atoms []query.RelAtom
		var conds []query.EqAtom
		for _, l := range r.Body {
			if l.Atom != nil {
				atoms = append(atoms, *l.Atom)
			} else {
				conds = append(conds, *l.Cond)
			}
		}
		qs[i] = cq.New(r.Head.Rel, r.Head.Args, atoms, conds...)
		if err := qs[i].Validate(schemas); err != nil {
			return nil, fmt.Errorf("datalog %s: rule %s: %w", p.Name, r, err)
		}
	}
	return qs, nil
}

// Validate checks the program against the EDB schemas: IDB predicates
// have one arity each, the output predicate is an IDB, no rule head is
// an EDB relation, and every rule passes cq.CQ.Validate against the
// EDB and IDB schemas (known predicates, matching arities, safety).
func (p *Program) Validate(schemas map[string]*relation.Schema) error {
	idb, err := p.idbSchemas()
	if err != nil {
		return err
	}
	if !slices.ContainsFunc(idb, func(s *relation.Schema) bool { return s.Name == p.Output }) {
		return fmt.Errorf("datalog %s: output %s is not the head of any rule", p.Name, p.Output)
	}
	for _, r := range p.Rules {
		if _, isEDB := schemas[r.Head.Rel]; isEDB {
			return fmt.Errorf("datalog %s: rule head %s is an EDB relation", p.Name, r.Head.Rel)
		}
	}
	_, err = p.ruleCQs(schemas, idb)
	return err
}

// plan is a program compiled for evaluation: the IDB schemas and each
// satisfiable rule's tableau, split by whether its body reads an IDB.
type plan struct {
	idb  []*relation.Schema
	init []rule // no IDB body atom: joined once, in round one
	rec  []rule // joined on each later round's delta
	// joined marks the IDBs that some rule reads beside another IDB
	// atom: only those are read from the base of a differential join,
	// which reads every other IDB atom from the delta alone.
	joined []bool
}

// rule is one compiled rule: its tableau and the index of its head's
// IDB in plan.idb.
type rule struct {
	t    *cq.Tableau
	head int
}

// compile builds the evaluation plan. It does not depend on the
// database: each EDB relation is typed by the arity of its first atom,
// and an EDB relation that a database lacks, or holds with another
// arity, contributes no rows.
func (p *Program) compile() (*plan, error) {
	idb, err := p.idbSchemas()
	if err != nil {
		return nil, err
	}
	idbAt := make(map[string]int, len(idb))
	for i, s := range idb {
		idbAt[s.Name] = i
	}
	edb := make(map[string]*relation.Schema)
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if a := l.Atom; a != nil && edb[a.Rel] == nil {
				if _, isIDB := idbAt[a.Rel]; !isIDB {
					edb[a.Rel] = anySchema(a.Rel, len(a.Args))
				}
			}
		}
	}
	qs, err := p.ruleCQs(edb, idb)
	if err != nil {
		return nil, err
	}
	pl := &plan{idb: idb, joined: make([]bool, len(idb))}
	for _, q := range qs {
		t, err := cq.BuildTableau(q)
		if err != nil {
			continue // ErrUnsatisfiable: the rule derives nothing
		}
		var reads []int
		for _, a := range t.Templates {
			if i, ok := idbAt[a.Rel]; ok {
				reads = append(reads, i)
			}
		}
		r := rule{t: t, head: idbAt[q.Name]}
		if len(reads) == 0 {
			pl.init = append(pl.init, r)
			continue
		}
		pl.rec = append(pl.rec, r)
		if len(reads) > 1 {
			for _, i := range reads {
				pl.joined[i] = true
			}
		}
	}
	return pl, nil
}

// Eval computes the inflationary fixpoint over the database and returns
// the output predicate's tuples in deterministic order.
func (p *Program) Eval(d *relation.Database) ([]relation.Tuple, error) {
	return p.EvalGate(d, nil)
}

// EvalGate is Eval under gate governance, evaluated semi-naively on the
// cq join engine. Each IDB is an interned instance read through an
// overlay of d. Round one joins the rules with no IDB body atom; every
// later round runs each other rule's tableau through the differential
// join, over base d ∪ (the IDB facts before the last round) and delta
// (the facts that round added), until a round adds nothing. Every join
// row charges one row-step, batched as in every cq evaluation, so a
// stop is seen within gateFlushRows rows; the first gate error aborts
// the fixpoint with no answer. A nil gate is free.
//
// The rules are compiled and checked for safety on the first call,
// whatever d holds, so Rules must not change after it.
func (p *Program) EvalGate(d *relation.Database, g *query.Gate) ([]relation.Tuple, error) {
	p.compileOnce.Do(func() { p.compiled, p.compileErr = p.compile() })
	if p.compileErr != nil {
		return nil, p.compileErr
	}
	pl := p.compiled
	// seen holds every fact derived so far, delta the facts the last
	// round added, base the facts before it (kept for joined IDBs only;
	// the others stay empty there, hiding any relation of d so named).
	seen := make([]*relation.Instance, len(pl.idb))
	base := make([]*relation.Instance, len(pl.idb))
	for i, s := range pl.idb {
		seen[i], base[i] = relation.NewInstance(s), relation.NewInstance(s)
	}
	db := d.Overlay(base...)
	delta := relation.NewDatabase(pl.idb...)
	for _, r := range pl.init {
		ts, err := r.t.EvalGate(db, g)
		if err != nil {
			return nil, err
		}
		s := seen[r.head]
		for _, t := range ts {
			n := s.Len()
			if s.MustAdd(t); s.Len() > n {
				delta.Instance(s.Schema.Name).MustAdd(t)
			}
		}
	}
	for !delta.IsEmpty() {
		rows := cq.DeltaRowsOf(delta)
		next := relation.NewDatabase(pl.idb...)
		for _, r := range pl.rec {
			s := seen[r.head]
			added := next.Instance(s.Schema.Name)
			probe := r.t.NewDeltaProbe(db)
			err := probe.Run(rows, g, func(head []int32) bool {
				n := s.Len()
				if s.AddIDs(head); s.Len() > n {
					added.AddIDs(head)
				}
				return true
			})
			probe.Flush()
			if err != nil {
				return nil, err
			}
		}
		facts := relation.Batch{Inserts: make(map[string][]relation.Tuple)}
		for i, s := range pl.idb {
			if pl.joined[i] {
				facts.Inserts[s.Name] = delta.Instance(s.Name).Tuples()
			}
		}
		if _, _, err := db.ApplyBatch(facts); err != nil {
			return nil, err
		}
		delta = next
	}
	for i, s := range pl.idb {
		if s.Name == p.Output {
			return seen[i].Tuples(), nil
		}
	}
	return []relation.Tuple{}, nil
}

// EvalBool evaluates a Boolean (nullary output) program.
func (p *Program) EvalBool(d *relation.Database) (bool, error) {
	ts, err := p.Eval(d)
	return len(ts) > 0, err
}

// TransitiveClosure returns the canonical FP program computing the
// transitive closure of a binary EDB relation into IDB predicate out —
// the standard example (query Q₃ of Example 1.1).
func TransitiveClosure(edb, out string) *Program {
	x, y, z := query.Var("x"), query.Var("y"), query.Var("z")
	return NewProgram("tc", out,
		NewRule(query.Atom(out, x, y), L(edb, x, y)),
		NewRule(query.Atom(out, x, y), L(edb, x, z), L(out, z, y)),
	)
}

// OutputArity returns the arity of the output predicate (0 when the
// program has no rule for it, which Validate rejects).
func (p *Program) OutputArity() int {
	idb, _ := p.idbSchemas()
	for _, s := range idb {
		if s.Name == p.Output {
			return s.Arity()
		}
	}
	return 0
}

// Constants returns all constants occurring in the program's rules.
func (p *Program) Constants() []relation.Value {
	var out []relation.Value
	for _, r := range p.Rules {
		out = r.Head.Constants(out)
		for _, l := range r.Body {
			if l.Atom != nil {
				out = l.Atom.Constants(out)
			}
			if l.Cond != nil {
				if !l.Cond.L.IsVar {
					out = append(out, l.Cond.L.Val)
				}
				if !l.Cond.R.IsVar {
					out = append(out, l.Cond.R.Val)
				}
			}
		}
	}
	return out
}
