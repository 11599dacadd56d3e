package reductions

import (
	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/fo"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// FOSatToRCDP implements the undecidability reduction of Theorem
// 3.1(1): given an FO query q over a single relation E(a, b), it
// produces an RCDP(FO, CQ) instance with empty fixed D and Dm and no
// containment constraints such that D is complete for the derived
// Boolean query Q′ iff q is unsatisfiable (Q′ holds on a database iff
// q has a nonempty answer there; the empty D answers Q′ negatively, so
// completeness says no extension satisfies q).
//
// RCDP is undecidable here, so the instance is consumed by
// core.BoundedRCDPCtx: finding an extension certifies satisfiability;
// exhausting the bound certifies unsatisfiability up to that bound.
func FOSatToRCDP(q *fo.Query) (*RCDPInstance, error) {
	e := relation.NewSchema("E", relation.Attr("a"), relation.Attr("b"))
	schemas := map[string]*relation.Schema{"E": e}
	if err := q.Validate(schemas); err != nil {
		return nil, err
	}
	d := relation.NewDatabase(e)
	dm := relation.NewDatabase(relation.NewSchema("Rm1", relation.Attr("x")))
	// Q′() :- ∃(free vars) q.Body — Boolean closure of q.
	qPrime := fo.NewQuery("Qprime", nil, fo.FExists(fo.FreeVars(q.Body), q.Body))
	return &RCDPInstance{
		Q: qlang.FromFO(qPrime), D: d, Dm: dm, V: cc.NewSet(), Schemas: schemas,
	}, nil
}

// FOSatToRCDPviaCC implements the undecidability reduction of Theorem
// 3.1(2), where the FO power sits in the constraint language L_C and
// the query is a plain CQ: V contains the single FO containment
// constraint "D is nonempty and q(D) is empty" ⊆ ∅, so partially closed
// nonempty databases are exactly the models of q; the CQ query tests
// nonemptiness. The empty D is complete iff q is unsatisfiable.
func FOSatToRCDPviaCC(q *fo.Query) (*RCDPInstance, error) {
	e := relation.NewSchema("E", relation.Attr("a"), relation.Attr("b"))
	schemas := map[string]*relation.Schema{"E": e}
	if err := q.Validate(schemas); err != nil {
		return nil, err
	}
	d := relation.NewDatabase(e)
	dm := relation.NewDatabase(relation.NewSchema("Rm1", relation.Attr("x")))

	// qcc() :- (¬∃ q.Body) ∧ ∃xy E(x, y)   ⊆ ∅.
	nonEmpty := fo.FExists([]string{"x", "y"}, fo.FAtom("E", query.Var("x"), query.Var("y")))
	notQ := fo.FNot(fo.FExists(fo.FreeVars(q.Body), q.Body))
	qcc := fo.NewQuery("qcc", nil, fo.FAnd(notQ, nonEmpty))
	v := cc.NewSet(cc.FromFO("vfo", qcc, cc.EmptySet()))

	// CQ query testing nonemptiness.
	cqq := cq.New("Qne", nil, []query.RelAtom{query.Atom("E", query.Var("x"), query.Var("y"))})
	return &RCDPInstance{
		Q: qlang.FromCQ(cqq), D: d, Dm: dm, V: v, Schemas: schemas,
	}, nil
}

// FOSatToRCQP implements the undecidability reduction of Theorem
// 4.1(2): the same FO containment constraint as FOSatToRCDPviaCC plus
// an auxiliary unconstrained unary relation Ru; the query returns
// Ru's content whenever E is nonempty. When q is unsatisfiable only
// E-empty databases are partially closed, the query is constantly
// empty, and any database is complete; when q is satisfiable, Ru can
// always be extended with fresh values, so no complete database exists.
func FOSatToRCQP(q *fo.Query) (*RCQPInstance, error) {
	e := relation.NewSchema("E", relation.Attr("a"), relation.Attr("b"))
	ru := relation.NewSchema("Ru", relation.Attr("u"))
	schemas := map[string]*relation.Schema{"E": e, "Ru": ru}
	if err := q.Validate(map[string]*relation.Schema{"E": e}); err != nil {
		return nil, err
	}
	dm := relation.NewDatabase(relation.NewSchema("Rm1", relation.Attr("x")))

	nonEmpty := fo.FExists([]string{"x", "y"}, fo.FAtom("E", query.Var("x"), query.Var("y")))
	notQ := fo.FNot(fo.FExists(fo.FreeVars(q.Body), q.Body))
	qcc := fo.NewQuery("qcc", nil, fo.FAnd(notQ, nonEmpty))
	v := cc.NewSet(cc.FromFO("vfo", qcc, cc.EmptySet()))

	cqq := cq.New("Qu", []query.Term{query.Var("u")},
		[]query.RelAtom{
			query.Atom("E", query.Var("x"), query.Var("y")),
			query.Atom("Ru", query.Var("u")),
		})
	return &RCQPInstance{Q: qlang.FromCQ(cqq), Dm: dm, V: v, Schemas: schemas}, nil
}
