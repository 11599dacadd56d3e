package core_test

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// exampleSchema is Supt(eid, dept, cid) from Example 1.1 of the paper.
func exampleSchema() *relation.Schema {
	return relation.NewSchema("Supt",
		relation.Attr("eid"), relation.Attr("dept"), relation.Attr("cid"))
}

// exampleQuery is Q₂ of Example 1.1: the customers supported by e0.
func exampleQuery() qlang.Query {
	e, d, c := query.Var("e"), query.Var("d"), query.Var("c")
	return qlang.FromCQ(cq.New("Q2", []query.Term{c},
		[]query.RelAtom{query.Atom("Supt", e, d, c)},
		query.Eq(e, query.C("e0"))))
}

// ExampleRCDPCtx reproduces Example 3.1: under the constraint "e0 supports
// at most 3 customers", a database already holding 3 answers is
// relatively complete, while one holding a single answer is not — the
// checker returns the extension that changes the answer.
func ExampleRCDPCtx() {
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 3))
	dm := relation.NewDatabase(relation.NewSchema("Rm", relation.Attr("x")))

	full := relation.NewDatabase(exampleSchema())
	full.MustAdd("Supt", "e0", "s", "c1")
	full.MustAdd("Supt", "e0", "s", "c2")
	full.MustAdd("Supt", "e0", "s", "c3")
	r, err := core.RCDPCtx(context.Background(), exampleQuery(), full, dm, vset)
	if err != nil {
		panic(err)
	}
	fmt.Println("3 answers complete:", r.Verdict == core.VerdictComplete)

	partial := relation.NewDatabase(exampleSchema())
	partial.MustAdd("Supt", "e0", "s", "c1")
	r, err = core.RCDPCtx(context.Background(), exampleQuery(), partial, dm, vset)
	if err != nil {
		panic(err)
	}
	fmt.Println("1 answer complete:", r.Verdict == core.VerdictComplete)
	fmt.Println("new answer:", r.NewTuple)
	// Output:
	// 3 answers complete: true
	// 1 answer complete: false
	// new answer: (e0)
}

// ExampleRCQPCtx asks whether any database can be complete for the query.
// With no constraints and an output variable over an infinite domain,
// the answer is No (the E3/E4 analysis of Proposition 4.3 with an empty
// IND set): a fresh customer can always be added.
func ExampleRCQPCtx() {
	dm := relation.NewDatabase(relation.NewSchema("Rm", relation.Attr("x")))
	schemas := map[string]*relation.Schema{"Supt": exampleSchema()}
	res, err := core.RCQPCtx(context.Background(), exampleQuery(), dm, cc.NewSet(), schemas)
	if err != nil {
		panic(err)
	}
	fmt.Println("status:", res.Status)
	fmt.Println("method:", res.Method)
	// Output:
	// status: no
	// method: E3/E4
}

// ExampleChecker_RCDPCtx shows governed checking: a Budget bounds the
// search, and instead of running unboundedly the check returns
// Verdict=unknown with the exhausted dimension and the resources
// consumed.
func ExampleChecker_RCDPCtx() {
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 3))
	dm := relation.NewDatabase(relation.NewSchema("Rm", relation.Attr("x")))
	d := relation.NewDatabase(exampleSchema())
	d.MustAdd("Supt", "e0", "s", "c1")

	ck := core.Checker{Workers: 1, Budget: core.Budget{MaxJoinRows: 1}}
	r, err := ck.RCDPCtx(context.Background(), exampleQuery(), d, dm, vset)
	if err != nil {
		panic(err)
	}
	fmt.Println("verdict:", r.Verdict)
	fmt.Println("reason:", r.Reason)

	// An ample budget decides normally and reports what was spent.
	ck.Budget = core.Budget{MaxJoinRows: 100000, Timeout: time.Minute}
	r, err = ck.RCDPCtx(context.Background(), exampleQuery(), d, dm, vset)
	if err != nil {
		panic(err)
	}
	fmt.Println("verdict:", r.Verdict)
	fmt.Println("valuations:", r.Stats.Valuations > 0)
	// Output:
	// verdict: unknown
	// reason: join-rows
	// verdict: incomplete
	// valuations: true
}

// ExampleBoundedRCDPCtx runs the bounded semi-decision procedure used
// for the undecidable FO/FP rows, here governed by a context deadline.
func ExampleBoundedRCDPCtx() {
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 3))
	dm := relation.NewDatabase(relation.NewSchema("Rm", relation.Attr("x")))
	d := relation.NewDatabase(exampleSchema())
	d.MustAdd("Supt", "e0", "s", "c1")

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r, err := core.BoundedRCDPCtx(ctx, exampleQuery(), d, dm, vset,
		core.BoundedOpts{MaxAdd: 1, FreshValues: 1, Workers: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("verdict:", r.Verdict)
	fmt.Println("incomplete:", r.Verdict == core.VerdictIncomplete)
	// Output:
	// verdict: incomplete
	// incomplete: true
}
