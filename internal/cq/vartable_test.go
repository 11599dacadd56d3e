package cq

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// restateVarTable is the tableau's variable numbering restated by name:
// variables in template-major order of first occurrence with their
// positions, then the variables only the head or a ≠ condition
// mentions, sorted, then the head and ≠ conditions looked up by name.
func restateVarTable(tb *Tableau) VarTable {
	var want VarTable
	index := func(tm query.Term) int {
		for i, sl := range want.Slots {
			if tm.IsVar && sl.Name == tm.Name {
				return i
			}
		}
		return -1
	}
	add := func(name string) int {
		if i := index(query.Var(name)); i >= 0 {
			return i
		}
		want.Slots = append(want.Slots, Slot{Name: name})
		return len(want.Slots) - 1
	}
	for _, a := range tb.Templates {
		for col, tm := range a.Args {
			if tm.IsVar {
				i := add(tm.Name)
				want.Slots[i].Pos = append(want.Slots[i].Pos, Position{Rel: a.Rel, Col: col})
			}
		}
	}
	var rest []string
	for _, tm := range tb.Head {
		if tm.IsVar {
			rest = append(rest, tm.Name)
		}
	}
	for _, d := range tb.Diseqs {
		for _, tm := range []query.Term{d.L, d.R} {
			if tm.IsVar {
				rest = append(rest, tm.Name)
			}
		}
	}
	for _, name := range query.SortedVarSet(rest) {
		add(name)
	}
	for _, h := range tb.Head {
		i := index(h)
		want.Head = append(want.Head, i)
		if i >= 0 {
			want.Slots[i].Head = true
		}
	}
	for _, d := range tb.Diseqs {
		pair := [2]int{index(d.L), index(d.R)}
		for _, i := range pair {
			if i >= 0 {
				want.Slots[i].Neq = true
			}
		}
		want.Diseqs = append(want.Diseqs, pair)
	}
	return want
}

// checkVarTable compares tb's numbering with the name-level
// restatement, and Tableau.Domains with CQ.VarDomains of AsCQ.
func checkVarTable(t *testing.T, label string, tb *Tableau, schemas map[string]*relation.Schema) {
	t.Helper()
	got, want := tb.VarTable(), restateVarTable(tb)
	if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", want); g != w {
		t.Fatalf("%s: var table\n got %s\nwant %s\ntableau of %s", label, g, w, tb.Query)
	}
	if vars := tb.AsCQ().Vars(); !slices.Equal(tb.Vars, vars) {
		t.Fatalf("%s: Vars %v, want %v", label, tb.Vars, vars)
	}
	doms, ok := tb.Domains(schemas)
	wantDoms, wantOK := tb.AsCQ().VarDomains(schemas)
	if ok != wantOK {
		t.Fatalf("%s: Domains ok=%v, VarDomains ok=%v for %s", label, ok, wantOK, tb.Query)
	}
	if !ok {
		return // VarDomains stops filling its map at the first empty domain
	}
	if len(doms) != len(wantDoms) {
		t.Fatalf("%s: %d domains, VarDomains has %d", label, len(doms), len(wantDoms))
	}
	for i, sl := range got.Slots {
		if !reflect.DeepEqual(doms[i], wantDoms[sl.Name]) {
			t.Fatalf("%s: slot %d (%s) domain %v, VarDomains %v", label, i, sl.Name, doms[i], wantDoms[sl.Name])
		}
	}
}

// TestTableauVarTable checks the compiled numbering of random tableaux
// — CQs whose = conditions fold variables together or onto constants,
// with ≠ conditions, constants and unsafe head variables, and the
// disjunct tableaux of UCQs and ∃FO⁺ queries — against a restatement
// by name, and the per-slot domains against CQ.VarDomains.
func TestTableauVarTable(t *testing.T) {
	schemas := map[string]*relation.Schema{
		"R": relation.NewSchema("R", relation.Attr("a"), relation.FinAttr("b", "x", "y", "z")),
		"S": relation.NewSchema("S", relation.FinAttr("b", "y", "z", "w"), relation.Attr("c")),
		"T": relation.NewSchema("T", relation.FinAttr("k", "x"), relation.Attr("m"), relation.Attr("n")),
	}
	rels := []string{"R", "S", "T"}
	names := []string{"E", "D", "C", "B", "A"}
	consts := []string{"x", "y", "w"}
	rng := rand.New(rand.NewSource(36))
	term := func() query.Term {
		if rng.Intn(5) == 0 {
			return query.C(consts[rng.Intn(len(consts))])
		}
		return query.Var(names[rng.Intn(len(names))])
	}
	randomCQ := func(name string, arity int) *CQ {
		var atoms []query.RelAtom
		for i := 0; i < 1+rng.Intn(4); i++ {
			s := schemas[rels[rng.Intn(len(rels))]]
			args := make([]query.Term, s.Arity())
			for j := range args {
				args[j] = term()
			}
			atoms = append(atoms, query.RelAtom{Rel: s.Name, Args: args})
		}
		head := make([]query.Term, arity)
		for i := range head {
			head[i] = term()
		}
		var conds []query.EqAtom
		for i := rng.Intn(4); i > 0; i-- {
			if rng.Intn(2) == 0 {
				conds = append(conds, query.Eq(term(), term()))
			} else {
				conds = append(conds, query.Neq(term(), term()))
			}
		}
		return New(name, head, atoms, conds...)
	}
	tableaux, folded, neqs, unsafe, empty := 0, 0, 0, 0, 0
	check := func(label string, tb *Tableau) {
		checkVarTable(t, label, tb, schemas)
		tableaux++
		if len(tb.Vars) < len(tb.Query.Vars()) {
			folded++
		}
		if len(tb.Diseqs) > 0 {
			neqs++
		}
		if slots := tb.VarTable().Slots; len(slots) > 0 && len(slots[len(slots)-1].Pos) == 0 {
			unsafe++
		}
		if _, ok := tb.Domains(schemas); !ok {
			empty++
		}
	}
	for trial := 0; trial < 400; trial++ {
		arity := rng.Intn(3)
		q := randomCQ("Q", arity)
		if tb, err := BuildTableau(q); err == nil {
			check(fmt.Sprintf("trial %d CQ", trial), tb)
		}
		u := Union("U", q, randomCQ("Q2", arity))
		for i, tb := range u.Tableaux() {
			check(fmt.Sprintf("trial %d UCQ disjunct %d", trial, i), tb)
		}
		body := Or(
			And(FAtom("R", query.Var("A"), query.Var("B")), Or(FAtom("S", query.Var("B"), query.Var("C")), FEq(query.Var("B"), query.C("y")))),
			Exists([]string{"D"}, And(FAtom("T", query.Var("D"), query.Var("A"), query.Var("A")), FNeq(query.Var("A"), term()))),
		)
		e := NewEFO("E", []query.Term{query.Var("A")}, body)
		for i, tb := range e.ToUCQ().Tableaux() {
			check(fmt.Sprintf("trial %d EFO disjunct %d", trial, i), tb)
		}
	}
	// The random shapes must reach every case the numbering handles.
	if folded == 0 || neqs == 0 || unsafe == 0 || empty == 0 {
		t.Fatalf("weak coverage over %d tableaux: %d folded, %d with ≠, %d unsafe, %d with an empty domain",
			tableaux, folded, neqs, unsafe, empty)
	}
	t.Logf("%d tableaux: %d folded, %d with ≠, %d unsafe, %d with an empty domain", tableaux, folded, neqs, unsafe, empty)
}
