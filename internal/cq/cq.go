// Package cq implements conjunctive queries (CQ), unions of conjunctive
// queries (UCQ) and positive existential first-order queries (∃FO⁺),
// all with equality and inequality, exactly as defined in Section 2.1
// of Fan & Geerts. It provides construction, validation, satisfiability,
// the tableau representation (T_Q, u_Q) of Section 3.2.1, evaluation,
// classical homomorphism-based containment, and the Lemma 3.2
// single-relation encoding.
package cq

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// CQ is a conjunctive query: head ← atoms ∧ conditions. Conditions are
// equality and inequality atoms over the variables of the query and
// constants. The query is safe when every head variable and every
// variable used in a condition occurs in some relation atom or is
// equated (transitively) to one that does or to a constant.
type CQ struct {
	Name  string // display name; defaults to "Q"
	Head  []query.Term
	Atoms []query.RelAtom
	Conds []query.EqAtom

	// compiled-query cache; see Compiled. CQ values must not be copied
	// after first evaluation — all construction paths (New, Clone,
	// Rename) build fresh structs, so the cache never leaks into a
	// mutated copy.
	compileOnce sync.Once
	compiled    *Tableau
	compileErr  error
}

// Compiled returns the memoized tableau (T_Q, u_Q) of the query,
// building it on first use. Build failures — unsatisfiable queries,
// whose answers are empty everywhere — are cached too, so repeated
// evaluation of an unsatisfiable query never re-runs the union-find.
// The query must not be structurally mutated after its first
// evaluation; Clone/Rename return fresh, uncompiled copies for that.
func (q *CQ) Compiled() (*Tableau, error) {
	obs.CompiledLookups.Inc()
	q.compileOnce.Do(func() { q.compiled, q.compileErr = BuildTableau(q) })
	return q.compiled, q.compileErr
}

// New builds a CQ.
func New(name string, head []query.Term, atoms []query.RelAtom, conds ...query.EqAtom) *CQ {
	if name == "" {
		name = "Q"
	}
	return &CQ{Name: name, Head: head, Atoms: atoms, Conds: conds}
}

// Arity returns the output arity.
func (q *CQ) Arity() int { return len(q.Head) }

// Vars returns the sorted set of variables occurring anywhere in the
// query.
func (q *CQ) Vars() []string {
	var vs []string
	for _, a := range q.Atoms {
		vs = a.Vars(vs)
	}
	for _, t := range q.Head {
		if t.IsVar {
			vs = append(vs, t.Name)
		}
	}
	for _, c := range q.Conds {
		if c.L.IsVar {
			vs = append(vs, c.L.Name)
		}
		if c.R.IsVar {
			vs = append(vs, c.R.Name)
		}
	}
	return query.SortedVarSet(vs)
}

// Constants returns all constants occurring in the query.
func (q *CQ) Constants() []relation.Value {
	var cs []relation.Value
	for _, a := range q.Atoms {
		cs = a.Constants(cs)
	}
	for _, t := range q.Head {
		if !t.IsVar {
			cs = append(cs, t.Val)
		}
	}
	for _, c := range q.Conds {
		if !c.L.IsVar {
			cs = append(cs, c.L.Val)
		}
		if !c.R.IsVar {
			cs = append(cs, c.R.Val)
		}
	}
	return cs
}

// Clone returns a deep copy.
func (q *CQ) Clone() *CQ {
	cp := &CQ{Name: q.Name, Head: append([]query.Term(nil), q.Head...)}
	for _, a := range q.Atoms {
		cp.Atoms = append(cp.Atoms, a.Clone())
	}
	cp.Conds = append(cp.Conds, q.Conds...)
	return cp
}

// Rename returns a copy of the query with every variable prefixed, so
// that two queries can be combined without capture.
func (q *CQ) Rename(prefix string) *CQ {
	cp := q.Clone()
	ren := func(t query.Term) query.Term {
		if t.IsVar {
			return query.Var(prefix + t.Name)
		}
		return t
	}
	for i := range cp.Head {
		cp.Head[i] = ren(cp.Head[i])
	}
	for ai := range cp.Atoms {
		for ti := range cp.Atoms[ai].Args {
			cp.Atoms[ai].Args[ti] = ren(cp.Atoms[ai].Args[ti])
		}
	}
	for ci := range cp.Conds {
		cp.Conds[ci].L = ren(cp.Conds[ci].L)
		cp.Conds[ci].R = ren(cp.Conds[ci].R)
	}
	return cp
}

// Validate checks the query against a database schema: all relations
// exist, arities match, and the query is safe (every variable occurs in
// a relation atom or is transitively equated to one that does or to a
// constant).
func (q *CQ) Validate(schemas map[string]*relation.Schema) error {
	inAtom := make(map[string]bool)
	for _, a := range q.Atoms {
		s := schemas[a.Rel]
		if s == nil {
			return fmt.Errorf("cq %s: unknown relation %s", q.Name, a.Rel)
		}
		if len(a.Args) != s.Arity() {
			return fmt.Errorf("cq %s: atom %s has arity %d, schema wants %d", q.Name, a, len(a.Args), s.Arity())
		}
		for _, t := range a.Args {
			if t.IsVar {
				inAtom[t.Name] = true
			}
		}
	}
	// Propagate safety through equalities: x = y or x = c makes x safe
	// when y is safe (or c constant).
	changed := true
	for changed {
		changed = false
		for _, c := range q.Conds {
			if c.Neg {
				continue
			}
			lSafe := !c.L.IsVar || inAtom[c.L.Name]
			rSafe := !c.R.IsVar || inAtom[c.R.Name]
			if lSafe && c.R.IsVar && !inAtom[c.R.Name] {
				inAtom[c.R.Name] = true
				changed = true
			}
			if rSafe && c.L.IsVar && !inAtom[c.L.Name] {
				inAtom[c.L.Name] = true
				changed = true
			}
		}
	}
	for _, v := range q.Vars() {
		if !inAtom[v] {
			return fmt.Errorf("cq %s: unsafe variable %s (not bound by any relation atom)", q.Name, v)
		}
	}
	return nil
}

func (q *CQ) String() string {
	var b strings.Builder
	b.WriteString(query.FormatHead(q.Name, q.Head))
	b.WriteString(" :- ")
	parts := make([]string, 0, len(q.Atoms)+len(q.Conds))
	for _, a := range q.Atoms {
		parts = append(parts, a.String())
	}
	for _, c := range q.Conds {
		parts = append(parts, c.String())
	}
	b.WriteString(strings.Join(parts, ", "))
	return b.String()
}

// VarDomains computes, for each variable, the most restrictive domain
// implied by the attribute positions in which it occurs: the
// intersection of all finite domains at its positions, or the infinite
// domain when it only occurs at infinite positions. The second result
// is false if some variable's admissible set is empty (the query is
// then unsatisfiable).
func (q *CQ) VarDomains(schemas map[string]*relation.Schema) (map[string]relation.Domain, bool) {
	doms := make(map[string]relation.Domain)
	for _, a := range q.Atoms {
		s := schemas[a.Rel]
		if s == nil {
			continue
		}
		for i, t := range a.Args {
			if !t.IsVar || i >= s.Arity() {
				continue
			}
			ad := s.Attrs[i].Domain
			cur, seen := doms[t.Name]
			if !seen {
				doms[t.Name] = ad
				continue
			}
			doms[t.Name] = intersectDomains(cur, ad)
		}
	}
	for _, v := range q.Vars() {
		if _, ok := doms[v]; !ok {
			doms[v] = relation.InfiniteDomain()
		}
		d := doms[v]
		if d.Kind == relation.Finite && len(d.Values) == 0 {
			return doms, false
		}
	}
	return doms, true
}

func intersectDomains(a, b relation.Domain) relation.Domain {
	if a.Kind == relation.Infinite {
		return b
	}
	if b.Kind == relation.Infinite {
		return a
	}
	var out []relation.Value
	for _, v := range a.Values {
		if b.Contains(v) {
			out = append(out, v)
		}
	}
	return relation.Domain{Kind: relation.Finite, Values: out}
}
