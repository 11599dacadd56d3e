package cq

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// tableauBuilds counts BuildTableau invocations; a test hook for
// asserting that the compiled-query cache builds each tableau once.
var tableauBuilds atomic.Int64

// TableauBuilds returns the number of BuildTableau invocations so far in
// the process. Tests take the difference around an operation to assert
// how many tableaux it compiled.
func TableauBuilds() int64 { return tableauBuilds.Load() }

// Tableau is the tableau representation (T_Q, u_Q) of a CQ, as used in
// Section 3.2.1: equality atoms are folded in by assigning a single
// representative variable to each equivalence class eq(x) and by
// substituting constants for classes containing one. Only inequality
// conditions remain. The tableau generalizes the paper's single-relation
// form to multi-relation templates (see DESIGN.md: Lemma 3.2 makes the
// two interchangeable; SingleRelation implements the lemma itself).
type Tableau struct {
	Query     *CQ             // the original query
	Templates []query.RelAtom // tuple templates with representatives substituted
	Head      []query.Term    // rewritten output summary u_Q
	Diseqs    []query.EqAtom  // remaining ≠ conditions (rewritten)
	Vars      []string        // sorted distinct variables of the tableau

	// ip is the compiled slot plan of the join engine (ieval.go); nil
	// on hand-built tableaux, which compile it per evaluation.
	ip *iplan

	// applyPool recycles the database fragments Apply builds: the
	// decision procedures instantiate the templates once per candidate
	// valuation and discard the result almost every time, so callers
	// that know a fragment is dead hand it back via ReleaseApplied and
	// the next Apply refills it in place.
	applyPool sync.Pool
}

// ErrUnsatisfiable is returned by BuildTableau for queries whose
// equality/inequality conditions are contradictory.
type ErrUnsatisfiable struct{ Reason string }

func (e *ErrUnsatisfiable) Error() string { return "cq: unsatisfiable query: " + e.Reason }

// unionFind resolves variable equivalence classes with optional constant
// bindings.
type unionFind struct {
	parent map[string]string
	val    map[string]relation.Value // constant bound to a root, if any
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[string]string), val: make(map[string]relation.Value)}
}

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	r := u.find(p)
	u.parent[x] = r
	return r
}

func (u *unionFind) union(x, y string) error {
	rx, ry := u.find(x), u.find(y)
	if rx == ry {
		return nil
	}
	// Deterministic representative: smaller name wins.
	if ry < rx {
		rx, ry = ry, rx
	}
	vx, okx := u.val[rx]
	vy, oky := u.val[ry]
	if okx && oky && vx != vy {
		return &ErrUnsatisfiable{Reason: fmt.Sprintf("%s = %q conflicts with %s = %q", x, vx, y, vy)}
	}
	u.parent[ry] = rx
	if oky && !okx {
		u.val[rx] = vy
	}
	delete(u.val, ry)
	return nil
}

func (u *unionFind) bind(x string, v relation.Value) error {
	r := u.find(x)
	if cur, ok := u.val[r]; ok {
		if cur != v {
			return &ErrUnsatisfiable{Reason: fmt.Sprintf("%s bound to both %q and %q", x, cur, v)}
		}
		return nil
	}
	u.val[r] = v
	return nil
}

// resolve rewrites a term to its representative (a constant if the class
// is bound, otherwise the representative variable).
func (u *unionFind) resolve(t query.Term) query.Term {
	if !t.IsVar {
		return t
	}
	r := u.find(t.Name)
	if v, ok := u.val[r]; ok {
		return query.Const(v)
	}
	return query.Var(r)
}

// BuildTableau folds the equality conditions of q into a tableau. It
// returns ErrUnsatisfiable when the equalities are contradictory or an
// inequality is trivially violated (x ≠ x, or c ≠ c on the same
// constant).
func BuildTableau(q *CQ) (*Tableau, error) {
	tableauBuilds.Add(1)
	obs.TableauBuilds.Inc()
	if obs.Tracing() {
		obs.Emit("tableau_build", map[string]any{"query": q.Name})
	}
	uf := newUnionFind()
	for _, c := range q.Conds {
		if c.Neg {
			continue
		}
		switch {
		case c.L.IsVar && c.R.IsVar:
			if err := uf.union(c.L.Name, c.R.Name); err != nil {
				return nil, err
			}
		case c.L.IsVar:
			if err := uf.bind(c.L.Name, c.R.Val); err != nil {
				return nil, err
			}
		case c.R.IsVar:
			if err := uf.bind(c.R.Name, c.L.Val); err != nil {
				return nil, err
			}
		default:
			if c.L.Val != c.R.Val {
				return nil, &ErrUnsatisfiable{Reason: fmt.Sprintf("constant equality %q = %q", c.L.Val, c.R.Val)}
			}
		}
	}

	t := &Tableau{Query: q}
	varSeen := make(map[string]bool)
	addVar := func(tm query.Term) {
		if tm.IsVar && !varSeen[tm.Name] {
			varSeen[tm.Name] = true
			t.Vars = append(t.Vars, tm.Name)
		}
	}
	for _, a := range q.Atoms {
		na := a.Clone()
		for i, arg := range na.Args {
			na.Args[i] = uf.resolve(arg)
			addVar(na.Args[i])
		}
		t.Templates = append(t.Templates, na)
	}
	for _, h := range q.Head {
		nh := uf.resolve(h)
		t.Head = append(t.Head, nh)
		addVar(nh)
	}
	for _, c := range q.Conds {
		if !c.Neg {
			continue
		}
		l, r := uf.resolve(c.L), uf.resolve(c.R)
		switch {
		case !l.IsVar && !r.IsVar:
			if l.Val == r.Val {
				return nil, &ErrUnsatisfiable{Reason: fmt.Sprintf("inequality %q != %q", l.Val, r.Val)}
			}
			// Trivially true; drop.
		case l.IsVar && r.IsVar && l.Name == r.Name:
			return nil, &ErrUnsatisfiable{Reason: fmt.Sprintf("inequality %s != %s within one class", c.L, c.R)}
		default:
			t.Diseqs = append(t.Diseqs, query.EqAtom{L: l, R: r, Neg: true})
			addVar(l)
			addVar(r)
		}
	}
	sort.Strings(t.Vars)
	t.ip = t.buildIPlan()
	return t, nil
}

// AsCQ converts the tableau back into a plain CQ (templates plus
// remaining inequalities).
func (t *Tableau) AsCQ() *CQ {
	return New(t.Query.Name, t.Head, t.Templates, t.Diseqs...)
}

// Apply instantiates the tableau's templates under a binding, producing
// a database fragment μ(T_Q) over the given schemas. Unbound variables
// cause an error.
func (t *Tableau) Apply(b query.Binding, schemas map[string]*relation.Schema) (*relation.Database, error) {
	ss := make([]*relation.Schema, 0, len(t.Templates))
outer:
	for _, a := range t.Templates {
		for _, s := range ss {
			if s.Name == a.Rel {
				continue outer
			}
		}
		s := schemas[a.Rel]
		if s == nil {
			return nil, fmt.Errorf("cq: unknown relation %s", a.Rel)
		}
		ss = append(ss, s)
	}
	db := t.pooledDatabase(ss)
	if db == nil {
		db = relation.NewDatabase(ss...)
	}
	for _, a := range t.Templates {
		tup, ok := a.Ground(b)
		if !ok {
			return nil, fmt.Errorf("cq: binding does not cover template %s", a)
		}
		if err := db.Add(a.Rel, tup); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// pooledDatabase returns a recycled, emptied fragment matching the
// schema list exactly — same relations, same schema objects — or nil
// when the pool has nothing usable (the mismatch case only arises when
// one tableau is applied under different schema maps).
func (t *Tableau) pooledDatabase(ss []*relation.Schema) *relation.Database {
	db, _ := t.applyPool.Get().(*relation.Database)
	if db == nil {
		return nil
	}
	if len(db.Relations()) != len(ss) {
		return nil
	}
	for _, s := range ss {
		in := db.Instance(s.Name)
		if in == nil || in.Schema != s {
			return nil
		}
	}
	db.Reset()
	return db
}

// ReleaseApplied hands a database obtained from Apply back to the
// tableau's scratch pool. Callers must be done with every reference
// into it — instances, tuples, index views — because the next Apply
// reuses its storage in place.
func (t *Tableau) ReleaseApplied(db *relation.Database) {
	if db != nil {
		t.applyPool.Put(db)
	}
}

// HeadTuple instantiates the output summary u_Q under a binding.
func (t *Tableau) HeadTuple(b query.Binding) (relation.Tuple, bool) {
	out := make(relation.Tuple, len(t.Head))
	for i, h := range t.Head {
		v, ok := b.Resolve(h)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// DiseqsHold reports whether all inequality conditions hold under a
// complete binding.
func (t *Tableau) DiseqsHold(b query.Binding) bool {
	for _, d := range t.Diseqs {
		holds, ok := d.Holds(b)
		if !ok || !holds {
			return false
		}
	}
	return true
}

// Satisfiable reports whether the query has a nonempty answer on some
// database over the given schemas. Equality conflicts are detected by
// BuildTableau; what remains is checking that the inequality conditions
// can be met within the variables' admissible domains, which for
// finite-domain variables is a small constraint-satisfaction search
// (infinite-domain variables can always take fresh distinct values).
func Satisfiable(q *CQ, schemas map[string]*relation.Schema) bool {
	t, err := q.Compiled()
	if err != nil {
		return false
	}
	doms, ok := t.AsCQ().VarDomains(schemas)
	if !ok {
		return false
	}
	// Constants already fixed by the tableau. Only finite-domain
	// variables can fail; collect them with the diseq constraints that
	// mention them.
	var finVars []string
	for _, v := range t.Vars {
		if doms[v].Kind == relation.Finite {
			finVars = append(finVars, v)
		}
	}
	if len(finVars) == 0 {
		return true
	}
	sort.Strings(finVars)
	assign := make(query.Binding)
	var solve func(i int) bool
	solve = func(i int) bool {
		if i == len(finVars) {
			return true
		}
		v := finVars[i]
		for _, val := range doms[v].Values {
			assign[v] = val
			ok := true
			for _, d := range t.Diseqs {
				if holds, known := d.Holds(assign); known && !holds {
					ok = false
					break
				}
			}
			if ok && solve(i+1) {
				return true
			}
			delete(assign, v)
		}
		return false
	}
	return solve(0)
}
