package textq

import (
	"strings"
	"testing"

	"repro/internal/qlang"
	"repro/internal/relation"
)

const crmSchemaSrc = `
# CRM schemas
rel Cust(cid, name, cc, ac, phn)
rel Supt(eid, dept, cid)
rel Manage(eid1, eid2)
rel F(p: {0, 1})
`

func mustSchemas(t *testing.T) map[string]*relation.Schema {
	t.Helper()
	ss, err := ParseSchemas(crmSchemaSrc)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func TestParseSchemas(t *testing.T) {
	ss := mustSchemas(t)
	if len(ss) != 4 {
		t.Fatalf("want 4 schemas, got %d", len(ss))
	}
	if ss["Cust"].Arity() != 5 || ss["Supt"].Arity() != 3 {
		t.Fatal("arities wrong")
	}
	fp := ss["F"].Attrs[0]
	if fp.Domain.Kind != relation.Finite || len(fp.Domain.Values) != 2 {
		t.Fatalf("finite domain not parsed: %v", fp.Domain)
	}
}

func TestParseSchemasErrors(t *testing.T) {
	for _, src := range []string{
		"relx Cust(a)",
		"rel Cust(a",
		"rel Cust()",
		"rel Cust(a) rel Cust(b)",
		"rel Cust(a: {x})", // finite domain must have >= 2 values
	} {
		if _, err := ParseSchemas(src); err == nil {
			t.Errorf("accepted bad schema source %q", src)
		}
	}
}

func TestParseDatabase(t *testing.T) {
	ss := mustSchemas(t)
	d, err := ParseFacts(`
Supt(e0, sales, c1).
Supt(e0, sales, "c 2").
Cust(c1, Ann, 01, 908, 5550001).
F(1).
`, ss)
	if err != nil {
		t.Fatal(err)
	}
	if d.Instance("Supt").Len() != 2 || d.Instance("Cust").Len() != 1 {
		t.Fatalf("db sizes wrong:\n%v", d)
	}
	if !d.Contains("Supt", relation.T("e0", "sales", "c 2")) {
		t.Fatal("quoted constant lost")
	}
}

func TestParseDatabaseErrors(t *testing.T) {
	ss := mustSchemas(t)
	for _, src := range []string{
		"Supt(e0, sales, c1)",  // missing dot
		"Supt(e0, sales).",     // arity
		"Nope(a).",             // unknown relation
		"F(7).",                // finite-domain violation
		"Supt(e0, sales, 'c1'", // unterminated
	} {
		if _, err := ParseFacts(src, ss); err == nil {
			t.Errorf("accepted bad fact source %q", src)
		}
	}
}

func TestParseQueryCQ(t *testing.T) {
	ss := mustSchemas(t)
	q, err := ParseQuery(`Q(C) :- Supt(E, D, C), E = e0, C != 'c9'`, ss)
	if err != nil {
		t.Fatal(err)
	}
	if q.Lang() != qlang.CQ || q.Arity() != 1 {
		t.Fatalf("lang %v arity %d", q.Lang(), q.Arity())
	}
	d, _ := ParseFacts(`
Supt(e0, s, c1).
Supt(e0, s, c9).
Supt(e1, s, c2).
`, ss)
	got, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0] != "c1" {
		t.Fatalf("Eval = %v", got)
	}
}

func TestParseQueryUCQ(t *testing.T) {
	ss := mustSchemas(t)
	q, err := ParseQuery(`
Q(C) :- Supt(E, D, C), E = e0
Q(C) :- Supt(E, D, C), E = e1
`, ss)
	if err != nil {
		t.Fatal(err)
	}
	if q.Lang() != qlang.UCQ {
		t.Fatalf("lang %v", q.Lang())
	}
	d, _ := ParseFacts(`
Supt(e0, s, c1).
Supt(e1, s, c2).
Supt(e2, s, c3).
`, ss)
	got, _ := q.Eval(d)
	if len(got) != 2 {
		t.Fatalf("Eval = %v", got)
	}
}

func TestParseQueryDatalog(t *testing.T) {
	ss := mustSchemas(t)
	q, err := ParseQuery(`
output Above
Up(X, Y) :- Manage(X, Y)
Up(X, Y) :- Manage(X, Z), Up(Z, Y)
Above(X) :- Up(X, e0)
`, ss)
	if err != nil {
		t.Fatal(err)
	}
	if q.Lang() != qlang.FP {
		t.Fatalf("lang %v", q.Lang())
	}
	d, _ := ParseFacts(`
Manage(e1, e0).
Manage(e2, e1).
`, ss)
	got, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Eval = %v", got)
	}
}

func TestParseQueryErrors(t *testing.T) {
	ss := mustSchemas(t)
	for _, src := range []string{
		"",
		"Q(C) :- Nope(C)",
		"Q(C) :- Supt(E, D, C) P(C) :- Supt(E, D, C)", // mixed heads
		"Q(C) :- Supt(E, D)",                          // arity
		"Q(Z) :- Supt(E, D, C)",                       // unsafe
		"Q(C) : Supt(E, D, C)",                        // bad turnstile
		"output Nope\nUp(X, Y) :- Manage(X, Y)",       // missing output rule
	} {
		if _, err := ParseQuery(src, ss); err == nil {
			t.Errorf("accepted bad query %q", src)
		}
	}
}

func TestParseConstraints(t *testing.T) {
	ss := mustSchemas(t)
	dm, err := ParseFacts(`DCust(c1, Ann, 908, 5550001).`,
		map[string]*relation.Schema{
			"DCust": relation.NewSchema("DCust",
				relation.Attr("cid"), relation.Attr("name"), relation.Attr("ac"), relation.Attr("phn")),
		})
	if err != nil {
		t.Fatal(err)
	}
	set, err := ParseConstraints(`
cc phi0(C) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01 <= DCust[0]
cc phi1() :- Supt(E, D1, C1), Supt(E, D2, C2), C1 != C2 <= empty
`, ss, dm)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("constraints: %d", set.Len())
	}
	d, _ := ParseFacts(`
Cust(c1, Ann, 01, 908, 5550001).
Supt(e0, s, c1).
`, ss)
	ok, err := set.Satisfied(d, dm)
	if err != nil || !ok {
		t.Fatalf("constraints should hold: %v %v", ok, err)
	}
	d.MustAdd("Supt", "e0", "s", "cX")
	ok, _ = set.Satisfied(d, dm)
	if ok {
		t.Fatal("phi1 violation not detected")
	}
}

func TestParseConstraintsErrors(t *testing.T) {
	ss := mustSchemas(t)
	dm := relation.NewDatabase(relation.NewSchema("M", relation.Attr("x")))
	for _, src := range []string{
		"phi0(C) :- Supt(E, D, C) <= M[0]",    // missing cc keyword
		"cc p(C) :- Supt(E, D, C) <= Nope[0]", // unknown master rel
		"cc p(C) :- Supt(E, D, C) <= M[9]",    // bad column
		"cc p(C) :- Supt(E, D, C) <= M[x]",    // non-numeric column
		"cc p(C, D) :- Supt(E, D, C) <= M[0]", // arity mismatch
		"cc p(C) :- Supt(E, D, C)",            // missing rhs
	} {
		if _, err := ParseConstraints(src, ss, dm); err == nil {
			t.Errorf("accepted bad constraint %q", src)
		}
	}
}

func TestLexerComments(t *testing.T) {
	ss, err := ParseSchemas("# leading comment\nrel R(a) # trailing\n# end")
	if err != nil || len(ss) != 1 {
		t.Fatalf("comments mishandled: %v %v", ss, err)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"rel R(a!b)", "rel R('a)", "rel R(<a)"} {
		if _, err := ParseSchemas(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
	if !strings.Contains(mustErr(ParseSchemas("rel R(a\nb")).Error(), "line") {
		t.Fatal("errors should carry line numbers")
	}
}

func mustErr[T any](_ T, err error) error { return err }
