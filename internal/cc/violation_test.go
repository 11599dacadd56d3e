package cc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/fo"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// referenceViolation is the witness at the string level: the least
// tuple, in tuple order, of q(D) \ p(Dm), or of p(Dm) \ q(D) for a
// reverse constraint, from the sorted answers and string-keyed tuple sets.
func referenceViolation(t *testing.T, c *Constraint, d, dm *relation.Database) (relation.Tuple, bool) {
	t.Helper()
	lhs, err := c.Q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	if c.Reverse {
		have := map[string]bool{}
		for _, tu := range lhs {
			have[tupleKey(tu)] = true
		}
		for _, tu := range dm.Instance(c.P.Rel).Project(c.P.Cols) {
			if !have[tupleKey(tu)] {
				return tu, true
			}
		}
		return nil, false
	}
	rhs := map[string]bool{}
	if !c.P.IsEmptySet() {
		for _, tu := range dm.Instance(c.P.Rel).Project(c.P.Cols) {
			rhs[tupleKey(tu)] = true
		}
	}
	for _, tu := range lhs {
		if !rhs[tupleKey(tu)] {
			return tu, true
		}
	}
	return nil, false
}

// TestViolationMatchesReference compares Violation, which probes the id
// memo of p(Dm), with the string-level reference on random databases,
// for constraints in every language, reverse ones, a Boolean one into ∅
// and an FO query whose head holds a value no database holds (so the
// dictionary lacks it): the verdicts and the witnesses must agree, and
// each constraint must hold in at least 10 trials and fail in 20.
func TestViolationMatchesReference(t *testing.T) {
	x, y, z := query.Var("x"), query.Var("y"), query.Var("z")
	edge := cq.New("e", []query.Term{x, y}, []query.RelAtom{query.Atom("E", x, y)})
	absent := query.C("fo-head-value-in-no-database")
	cons := []*Constraint{
		FromCQ("src", cq.New("src", []query.Term{x}, []query.RelAtom{query.Atom("E", x, y)}), Proj("M", 0)),
		FromCQ("pair", edge, Proj("M", 0, 1)),
		FromCQ("loop", cq.New("loop", nil, []query.RelAtom{query.Atom("E", x, x)}), EmptySet()),
		FromUCQ("ends", cq.Union("ends",
			cq.New("l", []query.Term{x}, []query.RelAtom{query.Atom("E", x, y)}),
			cq.New("r", []query.Term{x}, []query.RelAtom{query.Atom("E", y, x)}),
		), Proj("M", 1)),
		FromEFO("efo", cq.NewEFO("efo", []query.Term{x}, cq.Or(
			cq.FAtom("E", x, y), cq.FAtom("E", y, x),
		)), Proj("M", 0)),
		FromFO("asym", fo.NewQuery("asym", []query.Term{x, y},
			fo.FAnd(fo.FAtom("E", x, y), fo.FNot(fo.FAtom("E", y, x)))), Proj("M", 0, 1)),
		FromFO("tagged", fo.NewQuery("tagged", []query.Term{x, absent},
			fo.FExists([]string{"y"}, fo.FAtom("E", x, y))), Proj("M", 0, 1)),
		FromFP("reach", datalog.NewProgram("reach", "Ends",
			datalog.NewRule(query.Atom("TC", x, y), datalog.L("E", x, y)),
			datalog.NewRule(query.Atom("TC", x, y), datalog.L("E", x, z), datalog.L("TC", z, y)),
			datalog.NewRule(query.Atom("Ends", y), datalog.L("TC", x, y)),
		), Proj("M", 1)),
		ReverseFromCQ("rev", Proj("M", 0, 1), edge),
		NewReverse("revfo", Proj("M", 1, 0), qlang.FromFO(fo.NewQuery("sym", []query.Term{x, y},
			fo.FOr(fo.FAtom("E", x, y), fo.FAtom("E", y, x))))),
	}
	rng := rand.New(rand.NewSource(25))
	val := func() string { return fmt.Sprintf("v%d", rng.Intn(6)) }
	violated := map[string]int{}
	for trial := 0; trial < 200; trial++ {
		d := relation.NewDatabase(relation.NewSchema("E", relation.Attr("a"), relation.Attr("b")))
		dm := relation.NewDatabase(relation.NewSchema("M", relation.Attr("a"), relation.Attr("b")))
		for i, n := 0, rng.Intn(8); i < n; i++ {
			d.MustAdd("E", val(), val())
		}
		masterRows := 30 // odd trials: a small master, for the reverse constraints
		if trial%2 == 1 {
			masterRows = 3
		}
		for i, n := 0, rng.Intn(masterRows); i < n; i++ {
			dm.MustAdd("M", val(), val())
		}
		for _, c := range cons {
			want, wantViol := referenceViolation(t, c, d, dm)
			got, viol, err := c.Violation(d, dm)
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, c.Name, err)
			}
			if viol != wantViol || viol && !got.Equal(want) {
				t.Fatalf("trial %d, %s: Violation = %v, %v; reference %v, %v\nD:\n%v\nDm:\n%v", trial, c.Name, got, viol, want, wantViol, d, dm)
			}
			if viol {
				violated[c.Name]++
			}
		}
	}
	if _, ok := relation.Shared().ID(absent.Val); ok {
		t.Fatalf("%s reached the dictionary; the absent-value path went untested", absent.Val)
	}
	t.Logf("violations per constraint over 200 trials: %v", violated)
	for _, c := range cons {
		if n := violated[c.Name]; n < 20 || n > 190 {
			t.Fatalf("%s violated in %d of 200 trials; want 20 to 190 (%v)", c.Name, n, violated)
		}
	}
}

// tupleKey is a collision-free string encoding of a tuple, for keying
// test maps by tuple: each value is quoted.
func tupleKey(t relation.Tuple) string { return fmt.Sprintf("%q", []relation.Value(t)) }
