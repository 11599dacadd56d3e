package datalog

import (
	"context"
	"errors"
	"fmt"
	"sync"
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

func TestTransitiveClosure(t *testing.T) {
	d, ss := edgeDB([2]string{"1", "2"}, [2]string{"2", "3"}, [2]string{"3", "4"})
	p := TransitiveClosure("E", "TC")
	if err := p.Validate(ss); err != nil {
		t.Fatal(err)
	}
	got, err := p.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("TC size = %d, want 6: %v", len(got), got)
	}
	want := map[string]bool{"1,4": true, "1,3": true, "2,4": true}
	for _, tu := range got {
		delete(want, string(tu[0])+","+string(tu[1]))
	}
	if len(want) != 0 {
		t.Fatalf("missing closure tuples: %v", want)
	}
}

func TestTransitiveClosureCycle(t *testing.T) {
	d, _ := edgeDB([2]string{"1", "2"}, [2]string{"2", "1"})
	got, err := TransitiveClosure("E", "TC").Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("cyclic TC size = %d, want 4: %v", len(got), got)
	}
}

func TestConditionsInRules(t *testing.T) {
	d, _ := edgeDB([2]string{"1", "1"}, [2]string{"1", "2"})
	// NonLoop(x,y) <- E(x,y), x != y
	p := NewProgram("p", "NonLoop",
		NewRule(query.Atom("NonLoop", v("x"), v("y")), L("E", v("x"), v("y")), LNeq(v("x"), v("y"))))
	got, err := p.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != "1" || got[0][1] != "2" {
		t.Fatalf("Eval = %v", got)
	}
}

func TestBindingEquality(t *testing.T) {
	d, _ := edgeDB([2]string{"1", "2"})
	// P(x,z) <- E(x,y), z = 'k' — equality binds head variable z.
	p := NewProgram("p", "P",
		NewRule(query.Atom("P", v("x"), v("z")), L("E", v("x"), v("y")), LEq(v("z"), c("k"))))
	got, err := p.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][1] != "k" {
		t.Fatalf("Eval = %v", got)
	}
}

func TestChainedEqualities(t *testing.T) {
	d, ss := edgeDB([2]string{"1", "2"})
	// P(z) <- E(x,y), z = w, w = x: z is bound only once both
	// equalities are seen, in either order.
	p := NewProgram("p", "P",
		NewRule(query.Atom("P", v("z")), L("E", v("x"), v("y")), LEq(v("z"), v("w")), LEq(v("w"), v("x"))))
	if err := p.Validate(ss); err != nil {
		t.Fatal(err)
	}
	got, err := p.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != "1" {
		t.Fatalf("Eval = %v, want [(1)]", got)
	}
}

func TestUnsafeProgramErrorsOnEmptyDatabase(t *testing.T) {
	d, _ := edgeDB()
	for _, p := range []*Program{
		NewProgram("p", "P", NewRule(query.Atom("P", v("z")), L("E", v("x"), v("y")))),
		NewProgram("p", "P", NewRule(query.Atom("P", v("x")), L("E", v("x"), v("y")), LNeq(v("w"), c("1")))),
	} {
		if got, err := p.Eval(d); err == nil {
			t.Fatalf("unsafe %s evaluated to %v on an empty database", p, got)
		}
	}
}

func TestRowBudgetStopsFixpoint(t *testing.T) {
	var edges [][2]string
	for i := 0; i < 200; i++ {
		edges = append(edges, [2]string{itoa(i), itoa(i + 1)})
	}
	d, _ := edgeDB(edges...)
	g := query.NewGate(context.Background(), 1000, 0)
	got, err := TransitiveClosure("E", "TC").EvalGate(d, g)
	if !errors.Is(err, query.ErrRowBudget) || got != nil {
		t.Fatalf("EvalGate under a 1000-row budget = %d tuples, %v; want no answer and ErrRowBudget", len(got), err)
	}
}

// TestConcurrentEval shares one program and one database across
// goroutines: the rules compile once and D's instances are only read.
func TestConcurrentEval(t *testing.T) {
	var edges [][2]string
	for i := 0; i < 40; i++ {
		edges = append(edges, [2]string{itoa(i), itoa(i + 1)})
	}
	d, _ := edgeDB(edges...)
	p := TransitiveClosure("E", "TC")
	var wg sync.WaitGroup
	sizes := make([]int, 8)
	errs := make([]error, 8)
	for i := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.Eval(d)
			sizes[i], errs[i] = len(got), err
		}()
	}
	wg.Wait()
	for i := range sizes {
		if errs[i] != nil || sizes[i] != 41*40/2 {
			t.Fatalf("goroutine %d: %d tuples, %v; want %d", i, sizes[i], errs[i], 41*40/2)
		}
	}
}

func TestConditionBeforeBinding(t *testing.T) {
	d, _ := edgeDB([2]string{"1", "2"}, [2]string{"2", "2"})
	// Condition written before the atom that binds its variables.
	p := NewProgram("p", "P",
		NewRule(query.Atom("P", v("x")), LNeq(v("x"), v("y")), L("E", v("x"), v("y"))))
	got, err := p.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != "1" {
		t.Fatalf("Eval = %v", got)
	}
}

func TestMultipleIDBsAndBooleanOutput(t *testing.T) {
	d, _ := edgeDB([2]string{"1", "2"}, [2]string{"2", "3"})
	// Reach(x,y) as TC; Goal() <- Reach('1','3').
	x, y, z := v("x"), v("y"), v("z")
	p := NewProgram("p", "Goal",
		NewRule(query.Atom("Reach", x, y), L("E", x, y)),
		NewRule(query.Atom("Reach", x, y), L("E", x, z), L("Reach", z, y)),
		NewRule(query.Atom("Goal"), L("Reach", c("1"), c("3"))),
	)
	ok, err := p.EvalBool(d)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("goal should be derivable")
	}
	d2, _ := edgeDB([2]string{"1", "2"})
	ok, err = p.EvalBool(d2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("goal should not be derivable")
	}
}

func TestValidate(t *testing.T) {
	_, ss := edgeDB()
	good := TransitiveClosure("E", "TC")
	if err := good.Validate(ss); err != nil {
		t.Fatal(err)
	}
	badOut := NewProgram("p", "Nope", NewRule(query.Atom("P", v("x")), L("E", v("x"), v("y"))))
	if badOut.Validate(ss) == nil {
		t.Fatal("missing output accepted")
	}
	headEDB := NewProgram("p", "E", NewRule(query.Atom("E", v("x"), v("y")), L("E", v("x"), v("y"))))
	if headEDB.Validate(ss) == nil {
		t.Fatal("EDB head accepted")
	}
	unsafe := NewProgram("p", "P", NewRule(query.Atom("P", v("z")), L("E", v("x"), v("y"))))
	if unsafe.Validate(ss) == nil {
		t.Fatal("unsafe head accepted")
	}
	unknown := NewProgram("p", "P", NewRule(query.Atom("P", v("x")), L("Z", v("x"))))
	if unknown.Validate(ss) == nil {
		t.Fatal("unknown predicate accepted")
	}
	arity := NewProgram("p", "P",
		NewRule(query.Atom("P", v("x")), L("E", v("x"), v("y"))),
		NewRule(query.Atom("P", v("x"), v("y")), L("E", v("x"), v("y"))))
	if arity.Validate(ss) == nil {
		t.Fatal("inconsistent IDB arity accepted")
	}
	idbArityUse := NewProgram("p", "P",
		NewRule(query.Atom("P", v("x")), L("E", v("x"), v("y"))),
		NewRule(query.Atom("R2", v("x")), L("P", v("x"), v("x"))))
	if idbArityUse.Validate(ss) == nil {
		t.Fatal("IDB atom arity mismatch accepted")
	}
	unsafeCond := NewProgram("p", "P",
		NewRule(query.Atom("P", v("x")), L("E", v("x"), v("y")), LNeq(v("w"), c("1"))))
	if unsafeCond.Validate(ss) == nil {
		t.Fatal("unsafe condition variable accepted")
	}
}

func TestLinearChainDepth(t *testing.T) {
	// A long chain exercises many fixpoint rounds.
	var edges [][2]string
	for i := 0; i < 50; i++ {
		edges = append(edges, [2]string{itoa(i), itoa(i + 1)})
	}
	d, _ := edgeDB(edges...)
	got, err := TransitiveClosure("E", "TC").Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	want := 51 * 50 / 2
	if len(got) != want {
		t.Fatalf("TC size = %d, want %d", len(got), want)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestOutputArityAndConstants(t *testing.T) {
	p := NewProgram("p", "P",
		NewRule(query.Atom("P", v("x"), c("k")), L("E", v("x"), c("1")), LNeq(v("x"), c("2")), LEq(c("3"), v("x"))))
	if got := p.OutputArity(); got != 2 {
		t.Fatalf("OutputArity = %d, want 2", got)
	}
	if got := NewProgram("p", "Nope", p.Rules...).OutputArity(); got != 0 {
		t.Fatalf("OutputArity of a missing output = %d, want 0", got)
	}
	if got := fmt.Sprint(p.Constants()); got != "[k 1 2 3]" {
		t.Fatalf("Constants = %s, want [k 1 2 3]", got)
	}
}

func TestStringRendering(t *testing.T) {
	p := TransitiveClosure("E", "TC")
	s := p.String()
	if s == "" || p.Rules[0].String() == "" {
		t.Fatal("empty String")
	}
}
