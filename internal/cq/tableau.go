package cq

import (
	"fmt"
	"slices"
	"sort"
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
	db, err := t.NewFragment(schemas)
	if err != nil {
		return nil, err
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

// NewFragment returns an empty database holding one relation per
// template relation, the shape Apply returns, SlotTemplates.ApplyInto
// refills and an RCDP witness Extension has.
func (t *Tableau) NewFragment(schemas map[string]*relation.Schema) (*relation.Database, error) {
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
	return relation.NewDatabase(ss...), nil
}

// SlotTemplates is the tableau's templates compiled against a caller's
// numbering of its variables ("slots"): Ground and AddInto instantiate
// them from a slot array of shared-dictionary ids, with no Binding, no
// Value and no interning per call. A compiled plan is read-only and may
// be shared across goroutines.
type SlotTemplates struct {
	tpls []slotTemplate
	// rels holds the schemas of the distinct template relations in
	// first-use order, and relTpls their template counts (the bound on
	// their rows in μ(T_Q)); slotTemplate.rel indexes both.
	rels    []*relation.Schema
	relTpls []int
	// unknown is the first template relation missing from the schemas,
	// "" when there is none.
	unknown string
}

type slotTemplate struct {
	name string
	rel  int // index into SlotTemplates.rels; -1 for an unknown relation
	// args holds one operand per column: a slot index when ≥ 0, the
	// complement ^id of a constant's id when < 0.
	args []int32
	// fin holds, per column, the id set of the attribute's finite
	// domain (nil for infinite attributes).
	fin [][]uint64
}

// SlotTemplates compiles the templates for the slot numbering slotOf,
// which must cover every template variable. Finite attribute domains
// come from schemas; their values and the templates' constants are
// interned here, once.
func (t *Tableau) SlotTemplates(slotOf map[string]int, schemas map[string]*relation.Schema) *SlotTemplates {
	dict := relation.Shared()
	st := &SlotTemplates{tpls: make([]slotTemplate, len(t.Templates))}
	for i, a := range t.Templates {
		tp := slotTemplate{name: a.Rel, rel: -1, args: make([]int32, len(a.Args)), fin: make([][]uint64, len(a.Args))}
		s := schemas[a.Rel]
		if s == nil {
			if st.unknown == "" {
				st.unknown = a.Rel
			}
		} else {
			tp.rel = slices.Index(st.rels, s)
			if tp.rel < 0 {
				tp.rel = len(st.rels)
				st.rels = append(st.rels, s)
				st.relTpls = append(st.relTpls, 0)
			}
			st.relTpls[tp.rel]++
		}
		for c, arg := range a.Args {
			if arg.IsVar {
				tp.args[c] = int32(slotOf[arg.Name])
			} else {
				tp.args[c] = ^dict.Intern(arg.Val)
			}
			if s != nil && c < s.Arity() && s.Attrs[c].Domain.Kind == relation.Finite {
				var set []uint64
				for _, v := range s.Attrs[c].Domain.Values {
					set = relation.SetIDBit(set, dict.Intern(v))
				}
				if set == nil {
					set = []uint64{}
				}
				tp.fin[c] = set
			}
		}
		st.tpls[i] = tp
	}
	return st
}

// Len returns the number of templates.
func (st *SlotTemplates) Len() int { return len(st.tpls) }

// Template returns template i's relation and its operands: a slot index
// when ≥ 0, the complement ^id of a constant's id when < 0. The slice
// is shared and read-only.
func (st *SlotTemplates) Template(i int) (rel string, args []int32) {
	return st.tpls[i].name, st.tpls[i].args
}

// ground resolves template tp's operands under slots into dst (which
// must have room for them) and reports whether every id lies in its
// column's finite domain.
func (tp *slotTemplate) ground(dst []int32, slots []int32) ([]int32, bool) {
	valid := true
	for c, op := range tp.args {
		id := ^op
		if op >= 0 {
			id = slots[op]
		}
		if fin := tp.fin[c]; fin != nil && !relation.HasIDBit(fin, id) {
			valid = false
		}
		dst = append(dst, id)
	}
	return dst, valid
}

// Ground refills dst with μ(T_Q) for the slot array: the witness Δ of
// one candidate valuation, as id rows (see DeltaRows). Templates that
// ground to one tuple give one row. It fails as Tableau.Apply does on
// the same valuation: on a template relation missing from the schemas
// the plan was compiled against, and with Database.Add's own error on
// a wrong arity or a value outside its column's finite domain.
func (st *SlotTemplates) Ground(dst *DeltaRows, slots []int32) error {
	if st.unknown != "" {
		return fmt.Errorf("cq: unknown relation %s", st.unknown)
	}
	dst.reset()
	for i, s := range st.rels {
		dst.group(s.Name, s.Arity(), st.relTpls[i])
	}
	var vals []relation.Value
	var buf [16]int32
	for i := range st.tpls {
		tp := &st.tpls[i]
		ids := buf[:0]
		if len(tp.args) > len(buf) {
			ids = make([]int32, 0, len(tp.args))
		}
		ids, valid := tp.ground(ids, slots)
		s := st.rels[tp.rel]
		if !valid || len(ids) != s.Arity() {
			return s.Check(relation.Tuple(relation.Shared().Values(ids)))
		}
		dr := &dst.rels[tp.rel]
		if dr.n > 0 && vals == nil {
			vals = relation.Shared().Snapshot()
		}
		dst.n += dr.add(ids, vals)
	}
	return nil
}

// ApplyInto is Apply refilling dst in place from a slot array: dst is
// emptied (see Database.Reset) and receives μ(T_Q). dst must hold a
// relation for every template, as a NewFragment result does; callers
// that evaluate queries over one valuation's instantiation after
// another reuse one fragment this way instead of allocating one per
// valuation. A value outside its column's finite domain fails exactly
// as Database.Add does.
func (st *SlotTemplates) ApplyInto(dst *relation.Database, slots []int32) error {
	dst.Reset()
	return st.AddInto(dst, slots)
}

// AddInto adds μ(T_Q) to dst without emptying it first; dst must hold
// every template relation.
func (st *SlotTemplates) AddInto(dst *relation.Database, slots []int32) error {
	var buf [16]int32
	for i := range st.tpls {
		tp := &st.tpls[i]
		ids := buf[:0]
		if len(tp.args) > len(buf) {
			ids = make([]int32, 0, len(tp.args))
		}
		ids, valid := tp.ground(ids, slots)
		if !valid {
			// Materialize the tuple so the error is Add's own.
			if err := dst.Add(tp.name, relation.Tuple(relation.Shared().Values(ids))); err != nil {
				return err
			}
			continue
		}
		in := dst.Instance(tp.name)
		if in == nil {
			return fmt.Errorf("cq: fragment has no relation %s", tp.name)
		}
		in.AddIDs(ids)
	}
	return nil
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
