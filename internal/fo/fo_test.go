package fo

import (
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

func v(n string) query.Term { return query.Var(n) }
func c(s string) query.Term { return query.C(s) }

func edgeDB(edges ...[2]string) (*relation.Database, map[string]*relation.Schema) {
	e := relation.NewSchema("E", relation.Attr("a"), relation.Attr("b"))
	d := relation.NewDatabase(e)
	for _, eg := range edges {
		d.MustAdd("E", eg[0], eg[1])
	}
	return d, map[string]*relation.Schema{"E": e}
}

func TestEvalAtomAndEq(t *testing.T) {
	d, _ := edgeDB([2]string{"1", "2"})
	q := NewQuery("Q", []query.Term{v("x")},
		FAnd(FAtom("E", v("x"), v("y")), FEq(v("y"), c("2"))))
	got := q.Eval(d)
	if len(got) != 1 || got[0][0] != "1" {
		t.Fatalf("Eval = %v", got)
	}
}

// TestEvalDedupsProjectedHeads: a body with several satisfying
// assignments per head tuple answers each head tuple once, in
// Tuple.Less order, whatever the insertion order of the facts; a
// Boolean query with many satisfying assignments answers one empty
// tuple.
func TestEvalDedupsProjectedHeads(t *testing.T) {
	d, _ := edgeDB([2]string{"b", "1"}, [2]string{"c", "2"}, [2]string{"a", "1"},
		[2]string{"b", "2"}, [2]string{"a", "3"}, [2]string{"b", "3"})
	// Q(x) :- E(x, y), with y free: a has 2 assignments, b 3, c 1.
	q := NewQuery("Q", []query.Term{v("x")}, FAtom("E", v("x"), v("y")))
	got, err := q.EvalGate(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []relation.Tuple{relation.T("a"), relation.T("b"), relation.T("c")}
	if len(got) != len(want) {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("Eval = %v, want %v", got, want)
		}
	}
	boolean := NewQuery("Q", nil, FAtom("E", v("x"), v("y")))
	if got := boolean.Eval(d); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("Boolean Eval = %v, want one empty tuple", got)
	}
}

func TestEvalNegation(t *testing.T) {
	d, _ := edgeDB([2]string{"1", "2"}, [2]string{"2", "1"}, [2]string{"1", "3"})
	// Nodes with an outgoing edge but no incoming edge from that target:
	// Q(x) :- exists y (E(x,y) & !E(y,x))
	q := NewQuery("Q", []query.Term{v("x")},
		FExists([]string{"y"}, FAnd(FAtom("E", v("x"), v("y")), FNot(FAtom("E", v("y"), v("x"))))))
	got := q.Eval(d)
	if len(got) != 1 || got[0][0] != "1" {
		t.Fatalf("Eval = %v", got)
	}
}

func TestEvalForall(t *testing.T) {
	d, _ := edgeDB([2]string{"1", "1"}, [2]string{"1", "2"}, [2]string{"1", "3"})
	// Q() :- forall y exists x E(x, y): every node has an incoming edge.
	q := NewQuery("Q", nil, FForall([]string{"y"}, FExists([]string{"x"}, FAtom("E", v("x"), v("y")))))
	if !q.EvalBool(d) {
		t.Fatal("forall should hold: 1 reaches every node")
	}
	d2, _ := edgeDB([2]string{"1", "2"})
	if q.EvalBool(d2) {
		t.Fatal("forall should fail: node 1 has no incoming edge")
	}
}

func TestEvalEmptyDomainQuantifiers(t *testing.T) {
	d, _ := edgeDB()
	ex := NewQuery("Q", nil, FExists([]string{"x"}, FAtom("E", v("x"), v("x"))))
	if ex.EvalBool(d) {
		t.Fatal("exists over empty domain must be false")
	}
	fa := NewQuery("Q", nil, FForall([]string{"x"}, FAtom("E", v("x"), v("x"))))
	if !fa.EvalBool(d) {
		t.Fatal("forall over empty domain must be true")
	}
}

func TestEvalExtraDomain(t *testing.T) {
	d, _ := edgeDB([2]string{"1", "1"})
	// forall x E(x,x) holds over {1} but fails once the domain is
	// extended with a fresh value.
	q := NewQuery("Q", nil, FForall([]string{"x"}, FAtom("E", v("x"), v("x"))))
	if !q.EvalBool(d) {
		t.Fatal("should hold over active domain")
	}
	if q.EvalBool(d, relation.Value("99")) {
		t.Fatal("should fail with extended domain")
	}
}

func TestFreeVars(t *testing.T) {
	f := FAnd(
		FExists([]string{"y"}, FAtom("E", v("x"), v("y"))),
		FNeq(v("z"), c("0")),
	)
	fv := FreeVars(f)
	if len(fv) != 2 || fv[0] != "x" || fv[1] != "z" {
		t.Fatalf("FreeVars = %v", fv)
	}
	// Shadowing: inner exists re-binds x.
	g := FExists([]string{"x"}, FAtom("E", v("x"), v("x")))
	if len(FreeVars(g)) != 0 {
		t.Fatalf("FreeVars(shadowed) = %v", FreeVars(g))
	}
}

func TestValidate(t *testing.T) {
	_, ss := edgeDB()
	ok := NewQuery("Q", []query.Term{v("x")}, FExists([]string{"y"}, FAtom("E", v("x"), v("y"))))
	if err := ok.Validate(ss); err != nil {
		t.Fatal(err)
	}
	unknown := NewQuery("Q", nil, FAtom("Z", v("x")))
	if unknown.Validate(ss) == nil {
		t.Fatal("unknown relation accepted")
	}
	badArity := NewQuery("Q", nil, FAtom("E", v("x")))
	if badArity.Validate(ss) == nil {
		t.Fatal("bad arity accepted")
	}
	notFree := NewQuery("Q", []query.Term{v("x")}, FExists([]string{"x"}, FAtom("E", v("x"), v("x"))))
	if notFree.Validate(ss) == nil {
		t.Fatal("head var bound in body accepted")
	}
}

func TestConstants(t *testing.T) {
	q := NewQuery("Q", []query.Term{c("h")},
		FOr(FEq(v("x"), c("a")), FNot(FAtom("E", c("b"), v("x")))))
	cs := q.Constants()
	seen := map[relation.Value]bool{}
	for _, cv := range cs {
		seen[cv] = true
	}
	if !seen["a"] || !seen["b"] || !seen["h"] {
		t.Fatalf("Constants = %v", cs)
	}
}

func TestShadowedQuantifierRestoresBinding(t *testing.T) {
	d, _ := edgeDB([2]string{"1", "2"})
	// exists x (E(x,y) & exists x E(x,x)) — inner x shadows outer; the
	// formula is false (no self loop) but must not corrupt outer x.
	q := NewQuery("Q", []query.Term{v("y")},
		FExists([]string{"x"}, FAnd(
			FAtom("E", v("x"), v("y")),
			FOr(FEq(v("x"), v("x")), FExists([]string{"x"}, FAtom("E", v("x"), v("x")))),
		)))
	got := q.Eval(d)
	if len(got) != 1 || got[0][0] != "2" {
		t.Fatalf("Eval = %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	f := FForall([]string{"x"}, FNot(FOr(FAtom("E", v("x"), v("x")), FNeq(v("x"), c("1")))))
	want := "forall x (!((E(x, x) | x != '1')))"
	if f.String() != want {
		t.Fatalf("String = %q", f.String())
	}
}
