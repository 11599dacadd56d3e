package textq_test

import (
	"fmt"

	"repro/internal/textq"
)

// ExampleParseQuery parses the text form of a conjunctive query and
// prints it back through FormatQuery, showing the round-trip grammar
// the relcheck/relbench CLIs accept.
func ExampleParseQuery() {
	schemas, err := textq.ParseSchemas(`rel Cust(id, area: {"908", "212"})`)
	if err != nil {
		panic(err)
	}
	q, err := textq.ParseQuery(`Q(I) :- Cust(I, A), A = "908"`, schemas)
	if err != nil {
		panic(err)
	}
	out, err := textq.FormatQuery(q)
	if err != nil {
		panic(err)
	}
	fmt.Print(out)
	// Output:
	// Q(I) :- Cust(I, A), A = '908'
}

// ExampleParseFacts parses dot-terminated fact lines against a
// schema and evaluates a query over the result.
func ExampleParseFacts() {
	schemas, err := textq.ParseSchemas(`rel Cust(id, area: {"908", "212"})`)
	if err != nil {
		panic(err)
	}
	d, err := textq.ParseFacts(`
		Cust(c1, "908").
		Cust(c2, "212").
	`, schemas)
	if err != nil {
		panic(err)
	}
	fmt.Print(textq.FormatDatabase(d))
	// Output:
	// Cust(c1, 908).
	// Cust(c2, 212).
}

// ExampleParseConstraints parses a containment constraint whose right
// side projects columns of a master relation, the form used throughout
// the testdata suites.
func ExampleParseConstraints() {
	schemas, err := textq.ParseSchemas(`
		rel Cust(id, area: {"908", "212"})
		rel MCust(id, area: {"908", "212"})
	`)
	if err != nil {
		panic(err)
	}
	dm, err := textq.ParseFacts(`MCust(c1, "908").`, schemas)
	if err != nil {
		panic(err)
	}
	vset, err := textq.ParseConstraints(
		`cc phi(I, A) :- Cust(I, A) <= MCust[0, 1]`, schemas, dm)
	if err != nil {
		panic(err)
	}
	out, err := textq.FormatConstraints(vset)
	if err != nil {
		panic(err)
	}
	fmt.Print(out)
	// Output:
	// cc phi(I, A) :- Cust(I, A) <= MCust[0, 1]
}
