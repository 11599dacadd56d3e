package query

import (
	"testing"

	"repro/internal/relation"
)

func TestTermEqual(t *testing.T) {
	if !Var("x").Equal(Var("x")) || Var("x").Equal(Var("y")) {
		t.Fatal("var equality wrong")
	}
	if !C("a").Equal(C("a")) || C("a").Equal(C("b")) {
		t.Fatal("const equality wrong")
	}
	if Var("x").Equal(C("x")) {
		t.Fatal("var equals const")
	}
	if Var("x").String() != "x" || C("a").String() != "'a'" {
		t.Fatal("String wrong")
	}
}

func TestAtomHelpers(t *testing.T) {
	a := Atom("R", Var("x"), C("c"), Var("y"))
	if a.String() != "R(x, 'c', y)" {
		t.Fatalf("String: %s", a)
	}
	vs := a.Vars(nil)
	if len(vs) != 2 || vs[0] != "x" || vs[1] != "y" {
		t.Fatalf("Vars: %v", vs)
	}
	cs := a.Constants(nil)
	if len(cs) != 1 || cs[0] != "c" {
		t.Fatalf("Constants: %v", cs)
	}
	cl := a.Clone()
	cl.Args[0] = C("z")
	if !a.Args[0].IsVar {
		t.Fatal("Clone not deep")
	}
}

func TestBindingResolveHolds(t *testing.T) {
	b := Binding{"x": "1"}
	if v, ok := b.Resolve(Var("x")); !ok || v != "1" {
		t.Fatal("Resolve var")
	}
	if _, ok := b.Resolve(Var("y")); ok {
		t.Fatal("Resolve unbound")
	}
	if v, ok := b.Resolve(C("c")); !ok || v != "c" {
		t.Fatal("Resolve const")
	}
	if h, ok := Eq(Var("x"), C("1")).Holds(b); !ok || !h {
		t.Fatal("Eq holds")
	}
	if h, ok := Neq(Var("x"), C("1")).Holds(b); !ok || h {
		t.Fatal("Neq holds")
	}
	if _, ok := Eq(Var("x"), Var("y")).Holds(b); ok {
		t.Fatal("unbound must report not-ok")
	}
}

func TestBindingClone(t *testing.T) {
	b := Binding{"x": "1"}
	c := b.Clone()
	c["x"] = "2"
	if b["x"] != "1" {
		t.Fatal("Clone not deep")
	}
}

func TestApplyAndGround(t *testing.T) {
	a := Atom("R", Var("x"), Var("y"))
	b := Binding{"x": "1"}
	ap := a.Apply(b)
	if ap.Args[0].IsVar || ap.Args[0].Val != "1" || !ap.Args[1].IsVar {
		t.Fatalf("Apply: %v", ap)
	}
	if _, ok := a.Ground(b); ok {
		t.Fatal("Ground with unbound var must fail")
	}
	b["y"] = "2"
	tup, ok := a.Ground(b)
	if !ok || !tup.Equal(relation.T("1", "2")) {
		t.Fatalf("Ground: %v", tup)
	}
}

func TestSortedVarSet(t *testing.T) {
	vs := SortedVarSet([]string{"b", "a", "b", "c", "a"})
	if len(vs) != 3 || vs[0] != "a" || vs[2] != "c" {
		t.Fatalf("SortedVarSet: %v", vs)
	}
}

func TestEqAtomString(t *testing.T) {
	if Eq(Var("x"), C("1")).String() != "x = '1'" {
		t.Fatal("Eq String")
	}
	if Neq(Var("x"), Var("y")).String() != "x != y" {
		t.Fatal("Neq String")
	}
}

func TestFormatHeadAndMustVars(t *testing.T) {
	if FormatHead("Q", MustVars("x", "y")) != "Q(x, y)" {
		t.Fatal("FormatHead wrong")
	}
}
