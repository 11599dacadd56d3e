// Package fo implements first-order queries (FO): atomic formulas closed
// under ∧, ∨, ¬, ∃ and ∀ (Section 2.1(d) of Fan & Geerts), evaluated
// under active-domain semantics. FO appears in the paper as a constraint
// and query language for the undecidable rows of Tables I and II and as
// the target language of the CIND translation of Proposition 2.1(c).
package fo

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/query"
	"repro/internal/relation"
)

// Formula is a first-order formula.
type Formula interface {
	isFormula()
	String() string
}

// Atom is a relation atom.
type Atom struct{ A query.RelAtom }

// Eq is an (in)equality atom.
type Eq struct{ E query.EqAtom }

// Not is negation.
type Not struct{ F Formula }

// And is conjunction.
type And struct{ L, R Formula }

// Or is disjunction.
type Or struct{ L, R Formula }

// Exists is existential quantification.
type Exists struct {
	Vars []string
	F    Formula
}

// Forall is universal quantification.
type Forall struct {
	Vars []string
	F    Formula
}

func (Atom) isFormula()   {}
func (Eq) isFormula()     {}
func (Not) isFormula()    {}
func (And) isFormula()    {}
func (Or) isFormula()     {}
func (Exists) isFormula() {}
func (Forall) isFormula() {}

func (f Atom) String() string { return f.A.String() }
func (f Eq) String() string   { return f.E.String() }
func (f Not) String() string  { return "!(" + f.F.String() + ")" }
func (f And) String() string  { return "(" + f.L.String() + " & " + f.R.String() + ")" }
func (f Or) String() string   { return "(" + f.L.String() + " | " + f.R.String() + ")" }
func (f Exists) String() string {
	return "exists " + strings.Join(f.Vars, ",") + " (" + f.F.String() + ")"
}
func (f Forall) String() string {
	return "forall " + strings.Join(f.Vars, ",") + " (" + f.F.String() + ")"
}

// FAtom builds a relation atom formula.
func FAtom(rel string, args ...query.Term) Formula { return Atom{query.Atom(rel, args...)} }

// FEq builds an equality formula.
func FEq(l, r query.Term) Formula { return Eq{query.Eq(l, r)} }

// FNeq builds an inequality formula.
func FNeq(l, r query.Term) Formula { return Eq{query.Neq(l, r)} }

// FNot negates a formula.
func FNot(f Formula) Formula { return Not{f} }

// FAnd builds a right-nested conjunction.
func FAnd(fs ...Formula) Formula { return foldF(fs, func(l, r Formula) Formula { return And{l, r} }) }

// FOr builds a right-nested disjunction.
func FOr(fs ...Formula) Formula { return foldF(fs, func(l, r Formula) Formula { return Or{l, r} }) }

func foldF(fs []Formula, op func(l, r Formula) Formula) Formula {
	if len(fs) == 0 {
		panic("fo: empty connective")
	}
	out := fs[len(fs)-1]
	for i := len(fs) - 2; i >= 0; i-- {
		out = op(fs[i], out)
	}
	return out
}

// FExists quantifies variables existentially.
func FExists(vars []string, f Formula) Formula { return Exists{Vars: vars, F: f} }

// FForall quantifies variables universally.
func FForall(vars []string, f Formula) Formula { return Forall{Vars: vars, F: f} }

// Query is an FO query with an output head. Evaluation uses active-
// domain semantics: quantifiers range over the values occurring in the
// database plus the constants of the query.
type Query struct {
	Name string
	Head []query.Term
	Body Formula
}

// NewQuery builds an FO query.
func NewQuery(name string, head []query.Term, body Formula) *Query {
	if name == "" {
		name = "Q"
	}
	return &Query{Name: name, Head: head, Body: body}
}

func (q *Query) String() string {
	return query.FormatHead(q.Name, q.Head) + " :- " + q.Body.String()
}

// Arity returns the output arity.
func (q *Query) Arity() int { return len(q.Head) }

// Constants returns all constants occurring in the query.
func (q *Query) Constants() []relation.Value {
	var out []relation.Value
	for _, h := range q.Head {
		if !h.IsVar {
			out = append(out, h.Val)
		}
	}
	var walk func(f Formula)
	walk = func(f Formula) {
		switch f := f.(type) {
		case Atom:
			out = f.A.Constants(out)
		case Eq:
			if !f.E.L.IsVar {
				out = append(out, f.E.L.Val)
			}
			if !f.E.R.IsVar {
				out = append(out, f.E.R.Val)
			}
		case Not:
			walk(f.F)
		case And:
			walk(f.L)
			walk(f.R)
		case Or:
			walk(f.L)
			walk(f.R)
		case Exists:
			walk(f.F)
		case Forall:
			walk(f.F)
		}
	}
	walk(q.Body)
	return out
}

// FreeVars returns the sorted free variables of the formula.
func FreeVars(f Formula) []string {
	free := make(map[string]bool)
	var walk func(f Formula, bound map[string]bool)
	walk = func(f Formula, bound map[string]bool) {
		switch f := f.(type) {
		case Atom:
			for _, t := range f.A.Args {
				if t.IsVar && !bound[t.Name] {
					free[t.Name] = true
				}
			}
		case Eq:
			for _, t := range []query.Term{f.E.L, f.E.R} {
				if t.IsVar && !bound[t.Name] {
					free[t.Name] = true
				}
			}
		case Not:
			walk(f.F, bound)
		case And:
			walk(f.L, bound)
			walk(f.R, bound)
		case Or:
			walk(f.L, bound)
			walk(f.R, bound)
		case Exists:
			nb := cloneSet(bound, f.Vars)
			walk(f.F, nb)
		case Forall:
			nb := cloneSet(bound, f.Vars)
			walk(f.F, nb)
		}
	}
	walk(f, map[string]bool{})
	out := make([]string, 0, len(free))
	for v := range free {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func cloneSet(s map[string]bool, add []string) map[string]bool {
	n := make(map[string]bool, len(s)+len(add))
	for k := range s {
		n[k] = true
	}
	for _, v := range add {
		n[v] = true
	}
	return n
}

// Validate checks relations and arities against the schema set and that
// all head variables are free in the body.
func (q *Query) Validate(schemas map[string]*relation.Schema) error {
	var err error
	var walk func(f Formula)
	walk = func(f Formula) {
		if err != nil {
			return
		}
		switch f := f.(type) {
		case Atom:
			s := schemas[f.A.Rel]
			if s == nil {
				err = fmt.Errorf("fo %s: unknown relation %s", q.Name, f.A.Rel)
				return
			}
			if len(f.A.Args) != s.Arity() {
				err = fmt.Errorf("fo %s: atom %s has arity %d, schema wants %d", q.Name, f.A, len(f.A.Args), s.Arity())
			}
		case Not:
			walk(f.F)
		case And:
			walk(f.L)
			walk(f.R)
		case Or:
			walk(f.L)
			walk(f.R)
		case Exists:
			walk(f.F)
		case Forall:
			walk(f.F)
		}
	}
	walk(q.Body)
	if err != nil {
		return err
	}
	free := make(map[string]bool)
	for _, v := range FreeVars(q.Body) {
		free[v] = true
	}
	for _, h := range q.Head {
		if h.IsVar && !free[h.Name] {
			return fmt.Errorf("fo %s: head variable %s not free in body", q.Name, h.Name)
		}
	}
	return nil
}

// domain computes the active domain for evaluation: every value in the
// database plus every constant of the query plus extras.
func (q *Query) domain(d *relation.Database, extra []relation.Value) []relation.Value {
	seen := make(map[relation.Value]bool)
	for _, v := range d.ActiveDomain() {
		seen[v] = true
	}
	for _, v := range q.Constants() {
		seen[v] = true
	}
	for _, v := range extra {
		seen[v] = true
	}
	return relation.SortedValues(seen)
}

// Eval evaluates the query over the database under active-domain
// semantics, with the domain extended by extra values (callers checking
// containment constraints pass the master data's values so that
// quantifiers range over both databases' constants).
func (q *Query) Eval(d *relation.Database, extra ...relation.Value) []relation.Tuple {
	out, _ := q.EvalGate(d, nil, extra...)
	return out
}

// EvalGate is Eval under gate governance. FO evaluation has no join
// rows; the row-step unit here is one variable assignment tried by the
// active-domain enumeration (top-level free variables and quantifiers
// alike), so a cancelled context stops the search within one assignment.
// Results computed before a trip are discarded.
func (q *Query) EvalGate(d *relation.Database, g *query.Gate, extra ...relation.Value) ([]relation.Tuple, error) {
	dom := q.domain(d, extra)
	// Enumerate every free variable of the body (head variables are a
	// subset of these for validated queries) and project onto the head.
	freeHead := FreeVars(q.Body)
	for _, h := range q.Head {
		if h.IsVar {
			freeHead = append(freeHead, h.Name)
		}
	}
	freeHead = query.SortedVarSet(freeHead)
	out := []relation.Tuple{}
	b := make(query.Binding)
	ec := newEvalCtx(g)
	var assign func(i int)
	assign = func(i int) {
		if i == len(freeHead) {
			if eval(q.Body, d, dom, b, ec) {
				t := make(relation.Tuple, len(q.Head))
				for j, h := range q.Head {
					t[j], _ = b.Resolve(h)
				}
				out = append(out, t)
			}
			return
		}
		for _, v := range dom {
			if !ec.step() {
				return
			}
			b[freeHead[i]] = v
			assign(i + 1)
		}
		delete(b, freeHead[i])
	}
	assign(0)
	if ec != nil && ec.err != nil {
		return nil, ec.err
	}
	// Several assignments can project onto one head tuple: sort the
	// answers and keep one of each run of equal ones.
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return slices.CompactFunc(out, relation.Tuple.Equal), nil
}

// EvalBool evaluates a Boolean FO query (empty head).
func (q *Query) EvalBool(d *relation.Database, extra ...relation.Value) bool {
	return len(q.Eval(d, extra...)) > 0
}

// evalCtx threads a gate through the boolean formula recursion. The
// recursion cannot carry an error, so the first gate error is parked
// here; once set, every loop bails out immediately and the top level
// discards the (garbage) boolean and returns the error. A nil *evalCtx
// is the ungoverned path.
type evalCtx struct {
	g   *query.Gate
	err error
}

func newEvalCtx(g *query.Gate) *evalCtx {
	if g == nil {
		return nil
	}
	return &evalCtx{g: g}
}

// step charges one assignment and reports whether enumeration may
// continue.
func (ec *evalCtx) step() bool {
	if ec == nil {
		return true
	}
	if ec.err != nil {
		return false
	}
	if err := ec.g.Step(); err != nil {
		ec.err = err
		return false
	}
	return true
}

// eval evaluates a formula under a binding of its free variables.
func eval(f Formula, d *relation.Database, dom []relation.Value, b query.Binding, ec *evalCtx) bool {
	switch f := f.(type) {
	case Atom:
		tup, ok := f.A.Ground(b)
		if !ok {
			panic(fmt.Sprintf("fo: unbound variable in atom %s", f.A))
		}
		return d.Contains(f.A.Rel, tup)
	case Eq:
		holds, ok := f.E.Holds(b)
		if !ok {
			panic(fmt.Sprintf("fo: unbound variable in %s", f.E))
		}
		return holds
	case Not:
		return !eval(f.F, d, dom, b, ec)
	case And:
		return eval(f.L, d, dom, b, ec) && eval(f.R, d, dom, b, ec)
	case Or:
		return eval(f.L, d, dom, b, ec) || eval(f.R, d, dom, b, ec)
	case Exists:
		return quantify(f.Vars, f.F, d, dom, b, false, ec)
	case Forall:
		return quantify(f.Vars, f.F, d, dom, b, true, ec)
	default:
		panic(fmt.Sprintf("fo: unknown node %T", f))
	}
}

// quantify enumerates assignments for the quantified variables. For
// universal quantification it searches for a falsifying assignment.
func quantify(vars []string, f Formula, d *relation.Database, dom []relation.Value, b query.Binding, universal bool, ec *evalCtx) bool {
	// Save shadowed bindings to restore afterwards.
	saved := make(map[string]relation.Value, len(vars))
	for _, v := range vars {
		if old, ok := b[v]; ok {
			saved[v] = old
		}
	}
	defer func() {
		for _, v := range vars {
			if old, ok := saved[v]; ok {
				b[v] = old
			} else {
				delete(b, v)
			}
		}
	}()
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(vars) {
			return eval(f, d, dom, b, ec) != universal
		}
		for _, val := range dom {
			if !ec.step() {
				return false
			}
			b[vars[i]] = val
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	found := rec(0)
	if universal {
		return !found // no falsifying assignment
	}
	return found
}
