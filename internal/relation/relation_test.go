package relation

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestFiniteDomain(t *testing.T) {
	d := FiniteDomain("b", "a", "b", "c")
	if len(d.Values) != 3 {
		t.Fatalf("want 3 deduped values, got %v", d.Values)
	}
	if d.Values[0] != "a" || d.Values[2] != "c" {
		t.Fatalf("not sorted: %v", d.Values)
	}
	if !d.Contains("b") || d.Contains("z") {
		t.Fatal("Contains wrong")
	}
	if !InfiniteDomain().Contains("anything") {
		t.Fatal("infinite domain must contain everything")
	}
}

func TestDomainEqual(t *testing.T) {
	if !FiniteDomain("a", "b").Equal(FiniteDomain("b", "a")) {
		t.Fatal("order-insensitive equality failed")
	}
	if FiniteDomain("a", "b").Equal(FiniteDomain("a", "c")) {
		t.Fatal("unequal domains reported equal")
	}
	if FiniteDomain("a", "b").Equal(InfiniteDomain()) {
		t.Fatal("finite equal to infinite")
	}
}

func TestSchemaValidate(t *testing.T) {
	cases := []struct {
		s  *Schema
		ok bool
	}{
		{NewSchema("R", Attr("a"), Attr("b")), true},
		{NewSchema("", Attr("a")), false},
		{NewSchema("R", Attr("a"), Attr("a")), false},
		{NewSchema("R", Attribute{Name: "a", Domain: FiniteDomain("x")}), false},
		{NewSchema("R", FinAttr("a", "0", "1")), true},
		{NewSchema("R", Attribute{Name: ""}), false},
	}
	for i, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestSchemaAttrIndex(t *testing.T) {
	s := NewSchema("R", Attr("x"), Attr("y"))
	if s.AttrIndex("y") != 1 || s.AttrIndex("z") != -1 {
		t.Fatal("AttrIndex wrong")
	}
	if s.Arity() != 2 {
		t.Fatal("Arity wrong")
	}
}

func TestTupleKeyCollisionFree(t *testing.T) {
	a := T("ab", "c")
	b := T("a", "bc")
	if tupleKey(a) == tupleKey(b) {
		t.Fatalf("key collision: %q vs %q", tupleKey(a), tupleKey(b))
	}
	c := T("a:b", "c")
	d := T("a", "b:c")
	if tupleKey(c) == tupleKey(d) {
		t.Fatal("key collision with separator-like values")
	}
}

func TestTupleKeyQuick(t *testing.T) {
	f := func(a, b []string) bool {
		ta, tb := T(a...), T(b...)
		return (tupleKey(ta) == tupleKey(tb)) == ta.Equal(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTupleOps(t *testing.T) {
	tu := T("a", "b", "c")
	if !tu.Equal(tu.Clone()) {
		t.Fatal("clone not equal")
	}
	if tu.Equal(T("a", "b")) {
		t.Fatal("different lengths equal")
	}
	if !T("a").Less(T("b")) || T("b").Less(T("a")) {
		t.Fatal("Less wrong")
	}
	if !T("a").Less(T("a", "b")) {
		t.Fatal("prefix must be less")
	}
	p := tu.Project([]int{2, 0})
	if !p.Equal(T("c", "a")) {
		t.Fatalf("Project wrong: %v", p)
	}
	if tu.String() != "(a, b, c)" {
		t.Fatalf("String: %s", tu)
	}
}

func TestInstanceBasics(t *testing.T) {
	s := NewSchema("R", Attr("a"), FinAttr("b", "0", "1"))
	in := NewInstance(s)
	if err := in.Add(T("x", "0")); err != nil {
		t.Fatal(err)
	}
	if err := in.Add(T("x", "0")); err != nil {
		t.Fatal("duplicate add must be a no-op")
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d", in.Len())
	}
	if err := in.Add(T("x")); err == nil {
		t.Fatal("arity violation accepted")
	}
	if err := in.Add(T("x", "7")); err == nil {
		t.Fatal("finite-domain violation accepted")
	}
	if !in.Contains(T("x", "0")) || in.Contains(T("y", "0")) {
		t.Fatal("Contains wrong")
	}
	in.Remove(T("x", "0"))
	if in.Len() != 0 {
		t.Fatal("Remove failed")
	}
}

func TestInstanceDeterministicOrder(t *testing.T) {
	s := NewSchema("R", Attr("a"))
	in := NewInstance(s)
	for _, v := range []string{"c", "a", "b"} {
		in.MustAdd(T(v))
	}
	ts := in.Tuples()
	if ts[0][0] != "a" || ts[1][0] != "b" || ts[2][0] != "c" {
		t.Fatalf("order: %v", ts)
	}
}

func TestInstanceSetOps(t *testing.T) {
	s := NewSchema("R", Attr("a"))
	a, b := NewInstance(s), NewInstance(s)
	a.MustAdd(T("1"))
	b.MustAdd(T("1"))
	b.MustAdd(T("2"))
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Fatal("SubsetOf wrong")
	}
	if a.Equal(b) {
		t.Fatal("Equal wrong")
	}
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.MustAdd(T("9"))
	if a.Contains(T("9")) {
		t.Fatal("clone not deep")
	}
}

func TestInstanceProject(t *testing.T) {
	s := NewSchema("R", Attr("a"), Attr("b"))
	in := NewInstance(s)
	in.MustAdd(T("1", "x"))
	in.MustAdd(T("2", "x"))
	p := in.Project([]int{1})
	if len(p) != 1 || p[0][0] != "x" {
		t.Fatalf("Project dedup failed: %v", p)
	}
}

func TestDatabaseBasics(t *testing.T) {
	r := NewSchema("R", Attr("a"))
	sch := NewSchema("S", Attr("b"))
	d := NewDatabase(r, sch)
	d.MustAdd("R", "1")
	d.MustAdd("S", "2")
	if d.TupleCount() != 2 || d.IsEmpty() {
		t.Fatal("TupleCount wrong")
	}
	if !d.Contains("R", T("1")) || d.Contains("R", T("2")) {
		t.Fatal("Contains wrong")
	}
	if d.Instance("X") != nil || d.Schema("X") != nil {
		t.Fatal("unknown relation must be nil")
	}
	if err := d.Add("X", T("1")); err == nil {
		t.Fatal("adding to unknown relation must fail")
	}
	rels := d.Relations()
	if len(rels) != 2 || rels[0] != "R" || rels[1] != "S" {
		t.Fatalf("Relations: %v", rels)
	}
}

func TestDatabaseCloneUnionSubset(t *testing.T) {
	r := NewSchema("R", Attr("a"))
	d1 := NewDatabase(r)
	d1.MustAdd("R", "1")
	d2 := NewDatabase(r)
	d2.MustAdd("R", "2")
	u := d1.Union(d2)
	if u.TupleCount() != 2 {
		t.Fatal("Union wrong")
	}
	if !d1.SubsetOf(u) || !d2.SubsetOf(u) || u.SubsetOf(d1) {
		t.Fatal("SubsetOf wrong")
	}
	if d1.Contains("R", T("2")) {
		t.Fatal("Union mutated receiver")
	}
	cp := d1.Clone()
	cp.MustAdd("R", "9")
	if d1.Contains("R", T("9")) {
		t.Fatal("Clone not deep")
	}
	if !d1.Equal(d1.Clone()) || d1.Equal(d2) {
		t.Fatal("Equal wrong")
	}
}

func TestDatabaseOverlay(t *testing.T) {
	r := NewSchema("R", Attr("a"))
	s := NewSchema("S", Attr("b"))
	d := NewDatabase(r, s)
	d.MustAdd("R", "1")
	d.MustAdd("S", "2")
	shadow, extra := NewInstance(NewSchema("S", Attr("b"))), NewInstance(NewSchema("Q", Attr("c")))
	o := d.Overlay(shadow, extra)
	if o.Instance("R") != d.Instance("R") {
		t.Fatal("Overlay must share d's instances")
	}
	if o.Instance("S") != shadow || o.Contains("S", T("2")) || o.Instance("Q") != extra {
		t.Fatal("Overlay must read ins in place of d's relations of the same name")
	}
	if rels := o.Relations(); len(rels) != 3 || rels[0] != "Q" || rels[1] != "R" || rels[2] != "S" {
		t.Fatalf("Relations: %v", rels)
	}
	extra.MustAdd(T("3"))
	if !o.Contains("Q", T("3")) || d.Instance("Q") != nil || !d.Contains("S", T("2")) {
		t.Fatal("Overlay must leave d's relations as they are")
	}
}

func TestDatabaseUnionIntoNewRelation(t *testing.T) {
	r := NewSchema("R", Attr("a"))
	s := NewSchema("S", Attr("b"))
	d1 := NewDatabase(r)
	d2 := NewDatabase(s)
	d2.MustAdd("S", "x")
	d1.UnionInto(d2)
	if !d1.Contains("S", T("x")) {
		t.Fatal("UnionInto must add unknown relations")
	}
}

func TestActiveDomain(t *testing.T) {
	r := NewSchema("R", Attr("a"), Attr("b"))
	d := NewDatabase(r)
	d.MustAdd("R", "z", "a")
	d.MustAdd("R", "a", "m")
	ad := d.ActiveDomain()
	if len(ad) != 3 || ad[0] != "a" || ad[1] != "m" || ad[2] != "z" {
		t.Fatalf("ActiveDomain: %v", ad)
	}
}

func TestStrings(t *testing.T) {
	r := NewSchema("R", Attr("a"), FinAttr("b", "0", "1"))
	if !strings.Contains(r.String(), "fin{0,1}") {
		t.Fatalf("schema String: %s", r)
	}
	d := NewDatabase(r)
	d.MustAdd("R", "x", "1")
	if !strings.Contains(d.String(), "(x, 1)") {
		t.Fatalf("db String: %s", d)
	}
}

func TestDuplicateSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate schema")
		}
	}()
	r := NewSchema("R", Attr("a"))
	NewDatabase(r, r)
}

// tupleKey is a collision-free string encoding of a tuple, for keying
// test models by tuple: each value is quoted.
func tupleKey(t Tuple) string { return fmt.Sprintf("%q", []Value(t)) }
