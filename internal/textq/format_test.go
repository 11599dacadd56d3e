package textq

import (
	"testing"

	"repro/internal/relation"
)

func TestFormatRoundTrip(t *testing.T) {
	ss := mustSchemas(t)
	src := `
Supt(e0, sales, c1).
Supt(e1, marketing, "c 2").
F(1).
`
	d, err := ParseFacts(src, ss)
	if err != nil {
		t.Fatal(err)
	}
	// schemas → text → schemas
	ss2, err := ParseSchemas(FormatSchemas(ss))
	if err != nil {
		t.Fatalf("schema round trip: %v\n%s", err, FormatSchemas(ss))
	}
	if len(ss2) != len(ss) {
		t.Fatal("schema count changed")
	}
	for n, s := range ss {
		s2 := ss2[n]
		if s2 == nil || s2.Arity() != s.Arity() {
			t.Fatalf("schema %s lost", n)
		}
		for i := range s.Attrs {
			if !s.Attrs[i].Domain.Equal(s2.Attrs[i].Domain) {
				t.Fatalf("domain of %s.%s changed", n, s.Attrs[i].Name)
			}
		}
	}
	// database → text → database
	d2, err := ParseFacts(FormatDatabase(d), ss2)
	if err != nil {
		t.Fatalf("db round trip: %v\n%s", err, FormatDatabase(d))
	}
	if !d.Equal(d2) {
		t.Fatalf("database changed:\n%v\nvs\n%v", d, d2)
	}
}

func TestQuoteIfNeeded(t *testing.T) {
	if quoteIfNeeded("abc") != "abc" || quoteIfNeeded("a b") != `"a b"` || quoteIfNeeded("") != `""` {
		t.Fatal("quoting rules wrong")
	}
}

func TestFormatDeterministic(t *testing.T) {
	ss := mustSchemas(t)
	d := relation.NewDatabase(ss["Supt"])
	d.MustAdd("Supt", "b", "x", "y")
	d.MustAdd("Supt", "a", "x", "y")
	if FormatDatabase(d) != FormatDatabase(d.Clone()) {
		t.Fatal("formatting not deterministic")
	}
}
