package reductions

import (
	"context"
	"fmt"

	"repro/internal/automata"
	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// DFAToRCDP implements the undecidability reduction of Theorem 3.1(3):
// given a 2-head DFA A it produces an RCDP(FP, CQ) instance over the
// string-encoding schema (P, P̄, F) with empty fixed D and Dm, fixed
// CQ well-formedness constraints V₁–V₃, and an FP query Q that holds on
// a well-formed instance iff it encodes a string accepted by A. The
// empty D is complete for Q iff L(A) = ∅ — undecidable, so the
// instance is consumed by core.BoundedRCDPCtx; the companion function
// DFAQueryAcceptsEncodingCtx validates the heart of the reduction (the
// datalog simulation) directly against the automaton.
func DFAToRCDP(a *automata.DFA) (*RCDPInstance, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	p, pbar, f := automata.StringEncodingSchemas()
	schemas := map[string]*relation.Schema{"P": p, "Pbar": pbar, "F": f}
	d := relation.NewDatabase(p, pbar, f)
	dm := relation.NewDatabase(relation.NewSchema("Rm1", relation.Attr("x")))

	v := wellFormedCCs()
	prog, err := DFAProgram(a)
	if err != nil {
		return nil, err
	}
	if err := prog.Validate(schemas); err != nil {
		return nil, err
	}
	return &RCDPInstance{Q: qlang.FromFP(prog), D: d, Dm: dm, V: v, Schemas: schemas}, nil
}

// wellFormedCCs builds the fixed constraints V₁–V₃ of the proof: P and
// P̄ are disjoint, F is a function, and F has at most one self-loop.
func wellFormedCCs() *cc.Set {
	x, y, z := query.Var("x"), query.Var("y"), query.Var("z")
	v1 := cq.New("v1", nil, []query.RelAtom{
		query.Atom("P", x), query.Atom("Pbar", x)})
	v2 := cq.New("v2", nil, []query.RelAtom{
		query.Atom("F", x, y), query.Atom("F", x, z)},
		query.Neq(y, z))
	v3 := cq.New("v3", nil, []query.RelAtom{
		query.Atom("F", x, x), query.Atom("F", y, y)},
		query.Neq(x, y))
	return cc.NewSet(
		cc.FromCQ("v1", v1, cc.EmptySet()),
		cc.FromCQ("v2", v2, cc.EmptySet()),
		cc.FromCQ("v3", v3, cc.EmptySet()),
	)
}

// DFAProgram builds the FP (datalog) query of the reduction: an IDB
// Reach(q, p₁, p₂) closes the transition relation over encoded
// configurations, starting from (q₀, 0, 0); the Boolean output requires
// reaching the accepting state together with the Q_ini and Q_fin
// well-formedness conjuncts (∃x F(0, x) and ∃x F(x, x)).
func DFAProgram(a *automata.DFA) (*datalog.Program, error) {
	state := func(s int) query.Term { return query.C(fmt.Sprintf("q%d", s)) }
	y1, z1 := query.Var("y1"), query.Var("z1")

	var rules []datalog.Rule
	// Seed: the initial configuration, anchored on position 0.
	rules = append(rules, datalog.NewRule(
		query.Atom("Reach", state(a.Start), query.C("0"), query.C("0")),
		datalog.L("F", query.C("0"), query.Var("w")),
	))

	// One rule per transition. α for symbol s at position v requires
	// P/P̄(v) and a proper successor F(v, s) with v ≠ s; α for ε
	// requires the self-loop F(v, v). β moves to the successor or stays.
	for k, val := range a.Delta {
		var body []datalog.Literal
		body = append(body, datalog.L("Reach", state(k.State), y1, z1))
		y2 := addHeadConds(&body, k.In1, val.Move1, y1, "ys")
		z2 := addHeadConds(&body, k.In2, val.Move2, z1, "zs")
		rules = append(rules, datalog.NewRule(
			query.Atom("Reach", state(val.State), y2, z2), body...))
	}

	// Out() <- Reach(q_acc, u, v), F('0', i), F(e, e).
	rules = append(rules, datalog.NewRule(
		query.Atom("Out"),
		datalog.L("Reach", state(a.Accept), query.Var("u"), query.Var("vv")),
		datalog.L("F", query.C("0"), query.Var("ini")),
		datalog.L("F", query.Var("fin"), query.Var("fin")),
	))
	return datalog.NewProgram("dfa", "Out", rules...), nil
}

// addHeadConds appends the α/β literals for one head to the body and
// returns the head's new position term.
func addHeadConds(body *[]datalog.Literal, in automata.Symbol, move automata.Move, pos query.Term, succName string) query.Term {
	succ := query.Var(succName)
	switch in {
	case automata.Sym1:
		*body = append(*body,
			datalog.L("P", pos),
			datalog.L("F", pos, succ),
			datalog.LNeq(pos, succ))
	case automata.Sym0:
		*body = append(*body,
			datalog.L("Pbar", pos),
			datalog.L("F", pos, succ),
			datalog.LNeq(pos, succ))
	default: // ε: the head sits on the end position with the self-loop
		*body = append(*body, datalog.L("F", pos, pos))
	}
	if move == automata.Advance {
		if in == automata.Epsilon {
			// Advancing past the end stays on the self-loop position.
			return pos
		}
		return succ
	}
	return pos
}

// DFAQueryAcceptsEncodingCtx evaluates the reduction's FP query on the
// relational encoding of w, which must coincide with A accepting w —
// the executable content of the Theorem 3.1(3) simulation. The fixpoint
// simulation stops within gateFlushRows join rows (the cq engine's
// batching of row charges) of ctx being cancelled: the bounded
// simulators are where undecidable instances (Theorem 3.1) can
// genuinely diverge.
func DFAQueryAcceptsEncodingCtx(ctx context.Context, a *automata.DFA, w []automata.Symbol) (bool, error) {
	prog, err := DFAProgram(a)
	if err != nil {
		return false, err
	}
	var g *query.Gate
	if ctx != nil && ctx.Done() != nil {
		g = query.NewGate(ctx, 0, 0)
	}
	ts, err := prog.EvalGate(automata.EncodeString(w), g)
	return len(ts) > 0, err
}
