package textq

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

// Native fuzz targets for the textq surface: every parser must be
// panic-free on arbitrary input, and whenever a parse succeeds and the
// corresponding formatter can represent the result, formatting and
// reparsing must reach a fixed point (parse ∘ format = identity on the
// formatted text). The seed corpus mirrors the grammar constructs the
// examples and unit tests exercise.

// fuzzSchemas is the fixed schema context for the query, constraint and
// database targets (fuzzing the context too would make almost every
// input fail at the schema stage instead of exercising the layer under
// test).
const fuzzSchemas = `
rel Cust(cid, name, cc, ac, phn)
rel Supt(eid, dept, cid)
rel Manage(eid1, eid2)
rel F(p: {0, 1})
`

func fuzzContext(t *testing.T) map[string]*relation.Schema {
	t.Helper()
	ss, err := ParseSchemas(fuzzSchemas)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// representableValue reports whether a constant survives the grammar's
// quoting rules (no line breaks, not both quote characters).
func representableValue(s string) bool {
	if strings.ContainsRune(s, '\n') {
		return false
	}
	return !(strings.ContainsRune(s, '\'') && strings.ContainsRune(s, '"'))
}

// representable reports whether every value of d is representable.
func representable(d *relation.Database) bool {
	for _, rel := range d.Relations() {
		for _, tup := range d.Instance(rel).Tuples() {
			for _, v := range tup {
				if !representableValue(string(v)) {
					return false
				}
			}
		}
	}
	return true
}

func FuzzParseSchemas(f *testing.F) {
	f.Add(fuzzSchemas)
	f.Add("rel R(a, b)\n")
	f.Add("rel R(a: {x, y}, b)\nrel S(c)\n")
	f.Add("rel R(a: {\"v 1\", 'v2'})\n")
	f.Add("# comment\nrel R(a)")
	f.Add("relx R(a)")
	// A non-ASCII value whose UTF-8 bytes are not all identifier bytes
	// must be formatted quoted.
	f.Add(`rel 0(0:{"",'ݗ'})`)
	f.Fuzz(func(t *testing.T, src string) {
		ss, err := ParseSchemas(src)
		if err != nil {
			return
		}
		// Formatted schemas must reparse, and formatting must be a fixed
		// point — unless a finite-domain value is unrepresentable.
		for _, s := range ss {
			for _, a := range s.Attrs {
				for _, v := range a.Domain.Values {
					if !representableValue(string(v)) {
						return
					}
				}
			}
		}
		out := FormatSchemas(ss)
		ss2, err := ParseSchemas(out)
		if err != nil {
			t.Fatalf("formatted schemas do not reparse: %v\n%s", err, out)
		}
		if out2 := FormatSchemas(ss2); out2 != out {
			t.Fatalf("format not a fixed point:\n%q\nvs\n%q", out, out2)
		}
	})
}

func FuzzParseDatabase(f *testing.F) {
	f.Add("Supt(e0, sales, c1).\nF(1).\n")
	f.Add("Cust(c1, Ann, 01, 908, 5550001).\n")
	f.Add(`Supt(e0, sales, "c 2").` + "\n")
	f.Add("Supt(e0, sales, c1)")
	f.Add("Nope(a).")
	f.Add("# only a comment\n")
	f.Add("Supt(e0, sales, 'café').\n")
	f.Fuzz(func(t *testing.T, src string) {
		ss, err := ParseSchemas(fuzzSchemas)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ParseFacts(src, ss)
		if err != nil {
			return
		}
		if !representable(d) {
			return
		}
		out := FormatDatabase(d)
		d2, err := ParseFacts(out, ss)
		if err != nil {
			t.Fatalf("formatted database does not reparse: %v\n%s", err, out)
		}
		if !d.Equal(d2) {
			t.Fatalf("database changed across round trip:\n%v\nvs\n%v", d, d2)
		}
	})
}

// FuzzMutationBatch drives the pipeline behind the catalog mutation
// endpoints: facts text parses into per-relation tuple lists, applying
// them as an insert batch to an empty database over the same schemas
// must rebuild exactly the parsed database (reapplying must be a
// no-op — tuple-level idempotence is what makes mutation replay safe),
// the rebuilt database must round-trip through the formatter, and a
// batch that inserts and deletes the same tuples must drain back to
// empty (inserts apply before deletes).
func FuzzMutationBatch(f *testing.F) {
	f.Add("Supt(e0, sales, c1).\nF(1).\n")
	f.Add("Cust(c1, Ann, 01, 908, 5550001).\nCust(c1, Ann, 01, 908, 5550001).\n")
	f.Add("Supt(e0, sales, c1). Supt(e0, sales, c2). Manage(e1, e0).")
	f.Add("# comment\nF(0).\n")
	f.Add("Nope(a).")
	f.Add("F(2).")
	f.Fuzz(func(t *testing.T, src string) {
		ss := fuzzContext(t)
		d, err := ParseFacts(src, ss)
		if err != nil {
			return
		}
		ins := make(map[string][]relation.Tuple)
		for _, rel := range d.Relations() {
			if ts := d.Instance(rel).Tuples(); len(ts) > 0 {
				ins[rel] = append([]relation.Tuple(nil), ts...)
			}
		}
		fresh := func() *relation.Database {
			db := relation.NewDatabase()
			for _, rel := range d.Relations() {
				db.AddSchema(d.Schema(rel))
			}
			return db
		}

		db := fresh()
		n, del, err := db.ApplyBatch(relation.Batch{Inserts: ins})
		if err != nil {
			t.Fatalf("insert batch of parsed facts rejected: %v\n%s", err, src)
		}
		if n != d.TupleCount() || del != 0 {
			t.Fatalf("insert batch applied %d/%d rows, deleted %d", n, d.TupleCount(), del)
		}
		if !db.Equal(d) {
			t.Fatalf("insert batch does not rebuild the parsed database:\n%v\nvs\n%v", db, d)
		}
		if n, del, err = db.ApplyBatch(relation.Batch{Inserts: ins}); err != nil || n != 0 || del != 0 {
			t.Fatalf("reapplied insert batch not a no-op: ins %d del %d err %v", n, del, err)
		}
		if representable(db) {
			out := FormatDatabase(db)
			d2, err := ParseFacts(out, ss)
			if err != nil {
				t.Fatalf("rebuilt database does not reparse: %v\n%s", err, out)
			}
			if !d2.Equal(db) {
				t.Fatalf("rebuilt database changed across round trip:\n%v\nvs\n%v", db, d2)
			}
		}
		if _, del, err = db.ApplyBatch(relation.Batch{Deletes: ins}); err != nil || del != d.TupleCount() {
			t.Fatalf("delete batch removed %d/%d rows, err %v", del, d.TupleCount(), err)
		}
		if !db.IsEmpty() {
			t.Fatalf("database not empty after deleting every inserted tuple:\n%v", db)
		}
		if _, del, err = db.ApplyBatch(relation.Batch{Deletes: ins}); err != nil || del != 0 {
			t.Fatalf("absent deletes not a no-op: del %d err %v", del, err)
		}

		// Insert and delete in one batch: inserts apply first, so the
		// self-cancelling batch must drain to empty.
		db2 := fresh()
		if _, _, err := db2.ApplyBatch(relation.Batch{Inserts: ins, Deletes: ins}); err != nil {
			t.Fatalf("self-cancelling batch rejected: %v", err)
		}
		if !db2.IsEmpty() {
			t.Fatalf("self-cancelling batch left tuples:\n%v", db2)
		}
	})
}

func FuzzParseQuery(f *testing.F) {
	f.Add("Q(C) :- Supt(E, D, C), E = e0, C != 'c9'")
	f.Add("Q(C) :- Supt(E, D, C), E = e0\nQ(C) :- Supt(E, D, C), E = e1\n")
	f.Add("output Above\nUp(X, Y) :- Manage(X, Y)\nUp(X, Y) :- Manage(X, Z), Up(Z, Y)\nAbove(X) :- Up(X, e0)\n")
	f.Add("Q() :- F(1)")
	f.Add("Q(X) :- Manage(X, X)")
	f.Add("Q(X) :- ")
	f.Fuzz(func(t *testing.T, src string) {
		ss := fuzzContext(t)
		q, err := ParseQuery(src, ss)
		if err != nil {
			return
		}
		out, err := FormatQuery(q)
		if err != nil {
			return // unrepresentable constants
		}
		q2, err := ParseQuery(out, ss)
		if err != nil {
			t.Fatalf("formatted query does not reparse: %v\n%s", err, out)
		}
		if q2.Lang() != q.Lang() || q2.Arity() != q.Arity() {
			t.Fatalf("query shape changed: %v/%d vs %v/%d\n%s", q.Lang(), q.Arity(), q2.Lang(), q2.Arity(), out)
		}
		out2, err := FormatQuery(q2)
		if err != nil {
			t.Fatalf("reformat failed: %v\n%s", err, out)
		}
		if out2 != out {
			t.Fatalf("format not a fixed point:\n%q\nvs\n%q", out, out2)
		}
	})
}

func FuzzParseConstraints(f *testing.F) {
	f.Add("cc phi0(C) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01 <= DCust[0]\n")
	f.Add("cc phi1() :- Supt(E, D1, C1), Supt(E, D2, C2), C1 != C2 <= empty\n")
	f.Add("cc p(C, N) :- Cust(C, N, CC, A, P) <= DCust[0, 1]\n")
	f.Add("cc p(C) :- Supt(E, D, C)")
	f.Fuzz(func(t *testing.T, src string) {
		ss := fuzzContext(t)
		dm, err := ParseFacts("DCust(c1, Ann, 908, 5550001).",
			map[string]*relation.Schema{
				"DCust": relation.NewSchema("DCust",
					relation.Attr("cid"), relation.Attr("name"), relation.Attr("ac"), relation.Attr("phn")),
			})
		if err != nil {
			t.Fatal(err)
		}
		set, err := ParseConstraints(src, ss, dm)
		if err != nil {
			return
		}
		out, err := FormatConstraints(set)
		if err != nil {
			return // unrepresentable constants
		}
		set2, err := ParseConstraints(out, ss, dm)
		if err != nil {
			t.Fatalf("formatted constraints do not reparse: %v\n%s", err, out)
		}
		if set2.Len() != set.Len() {
			t.Fatalf("constraint count changed: %d vs %d\n%s", set.Len(), set2.Len(), out)
		}
		out2, err := FormatConstraints(set2)
		if err != nil {
			t.Fatalf("reformat failed: %v\n%s", err, out)
		}
		if out2 != out {
			t.Fatalf("format not a fixed point:\n%q\nvs\n%q", out, out2)
		}
	})
}
