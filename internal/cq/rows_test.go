package cq

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// TestGroundMatchesApplyRandom pins SlotTemplates.Ground to
// Tableau.Apply on random tableaux (repeated relations, constants, a
// finite-domain column) and valuations (some outside the finite
// domain): the same error, or rows that hold exactly the tuples of
// Apply's fragment, relation by relation, in the order its instances
// enumerate them and with their per-column distinct counts — which is
// what makes the delta scan charge the rows an Instance would. The
// fragment refills (ApplyInto, AddInto) must equal Apply too, and a
// DeltaProbe run over the rows must produce the heads, in order, of
// EvalFuncDeltaIDsGate over Apply's fragment.
func TestGroundMatchesApplyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vals := []string{"a", "b", "c", "d"}
	dict := relation.Shared()
	ctx := context.Background()
	var rows DeltaRows // refilled across every trial
	checked, failed, dups := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		schemas := map[string]*relation.Schema{}
		var ss []*relation.Schema
		for i := 0; i < 1+rng.Intn(3); i++ {
			attrs := make([]relation.Attribute, 1+rng.Intn(3))
			for j := range attrs {
				attrs[j] = relation.Attr(fmt.Sprintf("c%d", j))
			}
			if i == 0 {
				attrs[0] = relation.FinAttr("k", "a", "b")
			}
			s := relation.NewSchema(fmt.Sprintf("R%d", i), attrs...)
			schemas[s.Name] = s
			ss = append(ss, s)
		}
		atom := func(vars []string) query.RelAtom {
			s := ss[rng.Intn(len(ss))]
			args := make([]query.Term, s.Arity())
			for j := range args {
				if rng.Intn(4) == 0 {
					args[j] = query.C(vals[rng.Intn(2)])
				} else {
					args[j] = query.Var(vars[rng.Intn(len(vars))])
				}
			}
			return query.RelAtom{Rel: s.Name, Args: args}
		}
		var atoms []query.RelAtom
		for i := 0; i < 1+rng.Intn(4); i++ {
			atoms = append(atoms, atom([]string{"X", "Y", "Z"}))
		}
		tab, err := BuildTableau(New("T", nil, atoms))
		if err != nil {
			continue
		}
		slotOf := make(map[string]int, len(tab.Vars))
		for i, name := range tab.Vars {
			slotOf[name] = i
		}
		tpls := tab.SlotTemplates(slotOf, schemas)
		probe, err := BuildTableau(New("P", []query.Term{query.Var("U")}, []query.RelAtom{atom([]string{"U", "V"}), atom([]string{"U", "V"})}))
		if err != nil {
			continue
		}
		d := relation.NewDatabase(ss...)
		for i := 0; i < rng.Intn(6); i++ {
			s := ss[rng.Intn(len(ss))]
			tup := make(relation.Tuple, s.Arity())
			for j := range tup {
				tup[j] = relation.Value(vals[rng.Intn(len(vals))])
			}
			_ = d.Add(s.Name, tup) // values outside S.k are skipped
		}
		p := probe.NewDeltaProbe(d)
		frag, err := tab.NewFragment(schemas)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			b := make(query.Binding, len(tab.Vars))
			slots := make([]int32, len(tab.Vars))
			for _, name := range tab.Vars {
				b[name] = relation.Value(vals[rng.Intn(len(vals))])
				slots[slotOf[name]] = dict.Intern(b[name])
			}
			want, wantErr := tab.Apply(b, schemas)
			gotErr := tpls.Ground(&rows, slots)
			fragErr := tpls.ApplyInto(frag, slots)
			if wantErr != nil || gotErr != nil || fragErr != nil {
				if wantErr == nil || gotErr == nil || fragErr == nil ||
					gotErr.Error() != wantErr.Error() || fragErr.Error() != wantErr.Error() {
					t.Fatalf("trial %d: Ground error %v, ApplyInto error %v, Apply error %v", trial, gotErr, fragErr, wantErr)
				}
				failed++
				continue
			}
			checked++
			if !frag.Equal(want) {
				t.Fatalf("trial %d: ApplyInto built\n%v\nApply built\n%v", trial, frag, want)
			}
			if rows.Len() != want.TupleCount() || len(rows.rels) != len(want.Relations()) {
				t.Fatalf("trial %d: %d rows in %d relations, Apply built %d tuples in %d", trial,
					rows.Len(), len(rows.rels), want.TupleCount(), len(want.Relations()))
			}
			if rows.Len() < len(tab.Templates) {
				dups++
			}
			for _, name := range want.Relations() {
				in := want.Instance(name)
				dr := rows.rel(name, in.Schema.Arity())
				if dr == nil || dr.n != in.Len() {
					t.Fatalf("trial %d: relation %s missing or of the wrong size", trial, name)
				}
				for r, tup := range in.Tuples() {
					for c := range tup {
						if dict.Value(dr.cols[c][r]) != tup[c] {
							t.Fatalf("trial %d: %s row %d differs from the instance order %v", trial, name, r, in.Tuples())
						}
					}
				}
				for c := range dr.cols {
					if dr.distinct[c] != in.Distinct(c) {
						t.Fatalf("trial %d: %s column %d: %d distinct, instance %d", trial, name, c, dr.distinct[c], in.Distinct(c))
					}
				}
			}
			var got, ref [][]int32
			if err := p.Run(&rows, query.NewGate(ctx, 1<<40, 1<<40), func(h []int32) bool {
				got = append(got, slices.Clone(h))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if err := probe.EvalFuncDeltaIDsGate(d, want, nil, func(h []int32) bool {
				ref = append(ref, slices.Clone(h))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got, ref, slices.Equal[[]int32]) {
				t.Fatalf("trial %d: probe heads %v over the rows, %v over Apply's fragment", trial, got, ref)
			}
			add, err := tab.NewFragment(schemas)
			if err != nil {
				t.Fatal(err)
			}
			if err := tpls.AddInto(add, slots); err != nil || !add.Equal(want) {
				t.Fatalf("trial %d: AddInto = %v, %v", trial, add, err)
			}
		}
	}
	if checked < 300 || failed == 0 || dups == 0 {
		t.Fatalf("coverage: %d valuations checked, %d finite-domain failures, %d with duplicate rows", checked, failed, dups)
	}
}

// TestGroundMissingRelation: a template over a relation the plan's
// schemas lack fails Ground with NewFragment's error, and a probe
// template whose arity differs from the delta relation's reads no rows.
func TestGroundMissingRelation(t *testing.T) {
	r := relation.NewSchema("R", relation.Attr("a"))
	schemas := map[string]*relation.Schema{"R": r}
	tab, err := BuildTableau(New("T", nil, []query.RelAtom{query.Atom("R", query.Var("X")), query.Atom("S", query.Var("X"))}))
	if err != nil {
		t.Fatal(err)
	}
	_, want := tab.NewFragment(schemas)
	var rows DeltaRows
	got := tab.SlotTemplates(map[string]int{"X": 0}, schemas).Ground(&rows, []int32{relation.Shared().Intern("a")})
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("Ground error %v, NewFragment error %v", got, want)
	}

	delta := relation.NewDatabase(r)
	delta.MustAdd("R", "a")
	wide, err := BuildTableau(New("W", []query.Term{query.Var("X")}, []query.RelAtom{query.Atom("R", query.Var("X"), query.Var("Y"))}))
	if err != nil {
		t.Fatal(err)
	}
	p := wide.NewDeltaProbe(relation.NewDatabase(r))
	heads := 0
	if err := p.Run(DeltaRowsOf(delta), nil, func([]int32) bool { heads++; return true }); err != nil || heads != 0 {
		t.Fatalf("arity-mismatched probe: %d heads, %v", heads, err)
	}
}
