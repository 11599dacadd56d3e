// Package datalog implements FP, the datalog query language of Section
// 2.1(f) of Fan & Geerts: collections of rules p(x̄) ← p₁(x̄₁), …,
// p_n(x̄_n) whose body predicates are EDB relation atoms, IDB
// predicates, or (in)equality atoms, evaluated with the inflationary
// fixpoint semantics (semi-naively).
package datalog

import (
	"fmt"
	"sort"
	"strings"

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

// idbs computes the IDB predicates (all head predicates) and their
// arities.
func (p *Program) idbs() (map[string]int, error) {
	out := make(map[string]int)
	for _, r := range p.Rules {
		if ar, ok := out[r.Head.Rel]; ok {
			if ar != len(r.Head.Args) {
				return nil, fmt.Errorf("datalog %s: IDB %s used with arities %d and %d", p.Name, r.Head.Rel, ar, len(r.Head.Args))
			}
			continue
		}
		out[r.Head.Rel] = len(r.Head.Args)
	}
	return out, nil
}

// Validate checks the program against the EDB schemas: body atoms are
// either EDB relations with matching arity or IDB predicates with
// consistent arity; rules are safe (every head variable and every
// inequality variable occurs in a positive body atom); the output
// predicate is an IDB.
func (p *Program) Validate(schemas map[string]*relation.Schema) error {
	idbs, err := p.idbs()
	if err != nil {
		return err
	}
	if _, ok := idbs[p.Output]; !ok {
		return fmt.Errorf("datalog %s: output %s is not the head of any rule", p.Name, p.Output)
	}
	for _, r := range p.Rules {
		if _, isEDB := schemas[r.Head.Rel]; isEDB {
			return fmt.Errorf("datalog %s: rule head %s is an EDB relation", p.Name, r.Head.Rel)
		}
		bound := make(map[string]bool)
		for _, l := range r.Body {
			if l.Atom == nil {
				continue
			}
			if s, ok := schemas[l.Atom.Rel]; ok {
				if len(l.Atom.Args) != s.Arity() {
					return fmt.Errorf("datalog %s: atom %s has arity %d, schema wants %d", p.Name, l.Atom, len(l.Atom.Args), s.Arity())
				}
			} else if ar, ok := idbs[l.Atom.Rel]; ok {
				if len(l.Atom.Args) != ar {
					return fmt.Errorf("datalog %s: IDB atom %s has arity %d, rules want %d", p.Name, l.Atom, len(l.Atom.Args), ar)
				}
			} else {
				return fmt.Errorf("datalog %s: unknown predicate %s", p.Name, l.Atom.Rel)
			}
			for _, t := range l.Atom.Args {
				if t.IsVar {
					bound[t.Name] = true
				}
			}
		}
		// Equalities can bind: propagate like in cq.Validate.
		changed := true
		for changed {
			changed = false
			for _, l := range r.Body {
				if l.Cond == nil || l.Cond.Neg {
					continue
				}
				c := *l.Cond
				lSafe := !c.L.IsVar || bound[c.L.Name]
				rSafe := !c.R.IsVar || bound[c.R.Name]
				if lSafe && c.R.IsVar && !bound[c.R.Name] {
					bound[c.R.Name] = true
					changed = true
				}
				if rSafe && c.L.IsVar && !bound[c.L.Name] {
					bound[c.L.Name] = true
					changed = true
				}
			}
		}
		for _, t := range r.Head.Args {
			if t.IsVar && !bound[t.Name] {
				return fmt.Errorf("datalog %s: unsafe head variable %s in rule %s", p.Name, t.Name, r)
			}
		}
		for _, l := range r.Body {
			if l.Cond == nil {
				continue
			}
			for _, t := range []query.Term{l.Cond.L, l.Cond.R} {
				if t.IsVar && !bound[t.Name] {
					return fmt.Errorf("datalog %s: unsafe condition variable %s in rule %s", p.Name, t.Name, r)
				}
			}
		}
	}
	return nil
}

// Eval computes the inflationary fixpoint over the database and returns
// the output predicate's tuples in deterministic order.
func (p *Program) Eval(d *relation.Database) ([]relation.Tuple, error) {
	return p.EvalGate(d, nil)
}

// EvalGate is Eval under gate governance: each candidate tuple
// enumerated by a rule body charges one row-step and the first gate
// error aborts the fixpoint. A nil gate is free.
func (p *Program) EvalGate(d *relation.Database, g *query.Gate) ([]relation.Tuple, error) {
	idb, err := p.EvalAllGate(d, g)
	if err != nil {
		return nil, err
	}
	tuples := idb[p.Output]
	out := make([]relation.Tuple, 0, len(tuples))
	for _, t := range tuples {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// EvalBool evaluates a Boolean (nullary output) program.
func (p *Program) EvalBool(d *relation.Database) (bool, error) {
	ts, err := p.Eval(d)
	return len(ts) > 0, err
}

// EvalAll computes the fixpoint and returns every IDB predicate's
// tuples, keyed by predicate, each a map from tuple key to tuple.
func (p *Program) EvalAll(d *relation.Database) (map[string]map[string]relation.Tuple, error) {
	return p.EvalAllGate(d, nil)
}

// EvalAllGate is EvalAll under gate governance (see EvalGate).
func (p *Program) EvalAllGate(d *relation.Database, g *query.Gate) (map[string]map[string]relation.Tuple, error) {
	idbAr, err := p.idbs()
	if err != nil {
		return nil, err
	}
	idb := make(map[string]map[string]relation.Tuple, len(idbAr))
	delta := make(map[string]map[string]relation.Tuple, len(idbAr))
	for name := range idbAr {
		idb[name] = make(map[string]relation.Tuple)
		delta[name] = make(map[string]relation.Tuple)
	}

	// Naive-with-delta loop: in each round, fire every rule requiring
	// (for rules with IDB body atoms, after round one) at least one
	// delta atom; accumulate new facts until no rule produces any.
	round := 0
	for {
		round++
		next := make(map[string]map[string]relation.Tuple, len(idbAr))
		for name := range idbAr {
			next[name] = make(map[string]relation.Tuple)
		}
		produced := false
		for _, r := range p.Rules {
			if err := fireRule(r, d, idb, delta, round, next, g); err != nil {
				return nil, err
			}
		}
		for name, facts := range next {
			nd := make(map[string]relation.Tuple)
			for k, t := range facts {
				if _, ok := idb[name][k]; !ok {
					idb[name][k] = t
					nd[k] = t
					produced = true
				}
			}
			delta[name] = nd
		}
		if !produced {
			break
		}
	}
	return idb, nil
}

// fireRule enumerates all satisfying bindings of a rule body. For rounds
// after the first, rules whose bodies contain IDB atoms only fire with
// at least one atom matched against the delta (semi-naive restriction);
// rules over pure EDB bodies fire in round one only.
func fireRule(r Rule, d *relation.Database, idb, delta map[string]map[string]relation.Tuple, round int, next map[string]map[string]relation.Tuple, g *query.Gate) error {
	// Identify IDB body atoms.
	var idbPositions []int
	for i, l := range r.Body {
		if l.Atom != nil {
			if _, ok := idb[l.Atom.Rel]; ok {
				idbPositions = append(idbPositions, i)
			}
		}
	}
	if round > 1 && len(idbPositions) == 0 {
		return nil // EDB-only rules contribute nothing after round one
	}

	emit := func(b query.Binding) error {
		// Re-verify every condition: some may have been deferred while
		// their variables were unbound.
		for _, l := range r.Body {
			if l.Cond == nil {
				continue
			}
			holds, ok := l.Cond.Holds(b)
			if !ok {
				return fmt.Errorf("datalog: unsafe condition %s in rule %s", l.Cond, r)
			}
			if !holds {
				return nil
			}
		}
		tup, ok := r.Head.Ground(b)
		if !ok {
			return fmt.Errorf("datalog: unsafe rule slipped through validation: %s", r)
		}
		next[r.Head.Rel][tup.Key()] = tup
		return nil
	}

	// join enumerates bindings; deltaAt = index of the body atom that
	// must match against delta (-1: none; all IDB atoms read full idb).
	var join func(i int, b query.Binding, deltaAt int) error
	join = func(i int, b query.Binding, deltaAt int) error {
		if i == len(r.Body) {
			return emit(b)
		}
		l := r.Body[i]
		if l.Cond != nil {
			if holds, ok := l.Cond.Holds(b); ok {
				// Both sides bound: prune now.
				if holds {
					return join(i+1, b, deltaAt)
				}
				return nil
			}
			// A binding equality x = t with exactly one side unbound
			// binds the variable; everything else is deferred to emit.
			if !l.Cond.Neg {
				lv, lok := b.Resolve(l.Cond.L)
				rv, rok := b.Resolve(l.Cond.R)
				switch {
				case lok && !rok:
					b[l.Cond.R.Name] = lv
					err := join(i+1, b, deltaAt)
					delete(b, l.Cond.R.Name)
					return err
				case rok && !lok:
					b[l.Cond.L.Name] = rv
					err := join(i+1, b, deltaAt)
					delete(b, l.Cond.L.Name)
					return err
				}
			}
			return join(i+1, b, deltaAt)
		}
		atom := *l.Atom
		var source []relation.Tuple
		if facts, isIDB := idb[atom.Rel]; isIDB {
			if i == deltaAt {
				source = tupleList(delta[atom.Rel])
			} else {
				source = tupleList(facts)
			}
		} else {
			in := d.Instance(atom.Rel)
			if in == nil {
				return nil
			}
			source = in.Tuples()
		}
		for _, tup := range source {
			if err := g.Step(); err != nil {
				return err
			}
			newly := b.Match(atom, tup)
			if newly == nil {
				continue
			}
			err := join(i+1, b, deltaAt)
			for _, v := range newly {
				delete(b, v)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	if round == 1 || len(idbPositions) == 0 {
		return join(0, make(query.Binding), -1)
	}
	// Semi-naive: union over choices of which IDB atom reads the delta.
	for _, pos := range idbPositions {
		if len(delta[r.Body[pos].Atom.Rel]) == 0 {
			continue
		}
		if err := join(0, make(query.Binding), pos); err != nil {
			return err
		}
	}
	return nil
}

func tupleList(m map[string]relation.Tuple) []relation.Tuple {
	out := make([]relation.Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
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
	idbs, err := p.idbs()
	if err != nil {
		return 0
	}
	return idbs[p.Output]
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
