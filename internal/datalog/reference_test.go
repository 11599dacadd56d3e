package datalog

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// This file is the engine-independent reference for FP: a naive-with-
// delta fixpoint over string bindings, joining every body literal in
// written order against a full Instance.Tuples() scan, with the IDBs as
// string-keyed tuple maps. It shares nothing with the cq join engine
// that Program.EvalGate runs on, not even the safety check, which is
// its own equality propagation (refValidate).

// refEval checks p as refValidate does and computes the inflationary
// fixpoint over d, returning the output predicate's tuples sorted.
func refEval(p *Program, schemas map[string]*relation.Schema, d *relation.Database) ([]relation.Tuple, error) {
	if err := refValidate(p, schemas); err != nil {
		return nil, err
	}
	idbAr, err := refIDBs(p)
	if err != nil {
		return nil, err
	}
	idb := make(map[string]map[string]relation.Tuple, len(idbAr))
	delta := make(map[string]map[string]relation.Tuple, len(idbAr))
	for name := range idbAr {
		idb[name] = make(map[string]relation.Tuple)
		delta[name] = make(map[string]relation.Tuple)
	}
	// In each round, fire every rule requiring (for rules with IDB body
	// atoms, after round one) at least one delta atom; accumulate new
	// facts until no rule produces any.
	for round := 1; ; round++ {
		next := make(map[string]map[string]relation.Tuple, len(idbAr))
		for name := range idbAr {
			next[name] = make(map[string]relation.Tuple)
		}
		for _, r := range p.Rules {
			if err := refFire(r, d, idb, delta, round, next); err != nil {
				return nil, err
			}
		}
		produced := false
		for name, facts := range next {
			nd := make(map[string]relation.Tuple)
			for k, t := range facts {
				if _, ok := idb[name][k]; !ok {
					idb[name][k] = t
					nd[k] = t
					produced = true
				}
			}
			delta[name] = nd
		}
		if !produced {
			break
		}
	}
	return refTuples(idb[p.Output]), nil
}

// refFire enumerates all satisfying bindings of a rule body. For rounds
// after the first, rules whose bodies contain IDB atoms only fire with
// at least one atom matched against the delta (semi-naive restriction);
// rules over pure EDB bodies fire in round one only.
func refFire(r Rule, d *relation.Database, idb, delta map[string]map[string]relation.Tuple, round int, next map[string]map[string]relation.Tuple) error {
	var idbPositions []int
	for i, l := range r.Body {
		if l.Atom != nil {
			if _, ok := idb[l.Atom.Rel]; ok {
				idbPositions = append(idbPositions, i)
			}
		}
	}
	if round > 1 && len(idbPositions) == 0 {
		return nil
	}

	emit := func(b query.Binding) error {
		// Equalities deferred while both sides were unbound bind now,
		// to a fixpoint: z = w, w = x binds w from x, then z from w.
		var bound []string
		for changed := true; changed; {
			changed = false
			for _, l := range r.Body {
				if l.Cond == nil || l.Cond.Neg {
					continue
				}
				lv, lok := b.Resolve(l.Cond.L)
				rv, rok := b.Resolve(l.Cond.R)
				switch {
				case lok && !rok:
					b[l.Cond.R.Name] = lv
					bound = append(bound, l.Cond.R.Name)
				case rok && !lok:
					b[l.Cond.L.Name] = rv
					bound = append(bound, l.Cond.L.Name)
				default:
					continue
				}
				changed = true
			}
		}
		defer func() {
			for _, v := range bound {
				delete(b, v)
			}
		}()
		for _, l := range r.Body {
			if l.Cond == nil {
				continue
			}
			holds, ok := l.Cond.Holds(b)
			if !ok {
				return fmt.Errorf("reference: unsafe condition %s in rule %s", l.Cond, r)
			}
			if !holds {
				return nil
			}
		}
		tup, ok := r.Head.Ground(b)
		if !ok {
			return fmt.Errorf("reference: unsafe rule %s", r)
		}
		next[r.Head.Rel][tupleKey(tup)] = tup
		return nil
	}

	// join enumerates bindings; deltaAt = index of the body atom that
	// must match against delta (-1: none; all IDB atoms read full idb).
	var join func(i int, b query.Binding, deltaAt int) error
	join = func(i int, b query.Binding, deltaAt int) error {
		if i == len(r.Body) {
			return emit(b)
		}
		l := r.Body[i]
		if l.Cond != nil {
			if holds, ok := l.Cond.Holds(b); ok {
				if holds {
					return join(i+1, b, deltaAt)
				}
				return nil
			}
			// A binding equality with exactly one side unbound binds
			// the variable; everything else is deferred to emit.
			if !l.Cond.Neg {
				lv, lok := b.Resolve(l.Cond.L)
				rv, rok := b.Resolve(l.Cond.R)
				switch {
				case lok && !rok:
					b[l.Cond.R.Name] = lv
					err := join(i+1, b, deltaAt)
					delete(b, l.Cond.R.Name)
					return err
				case rok && !lok:
					b[l.Cond.L.Name] = rv
					err := join(i+1, b, deltaAt)
					delete(b, l.Cond.L.Name)
					return err
				}
			}
			return join(i+1, b, deltaAt)
		}
		atom := *l.Atom
		var source []relation.Tuple
		if facts, isIDB := idb[atom.Rel]; isIDB {
			if i == deltaAt {
				source = refTuples(delta[atom.Rel])
			} else {
				source = refTuples(facts)
			}
		} else if in := d.Instance(atom.Rel); in != nil {
			source = in.Tuples()
		}
		for _, tup := range source {
			newly := refMatch(b, atom, tup)
			if newly == nil {
				continue
			}
			err := join(i+1, b, deltaAt)
			for _, v := range newly {
				delete(b, v)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	if round == 1 || len(idbPositions) == 0 {
		return join(0, make(query.Binding), -1)
	}
	for _, pos := range idbPositions {
		if len(delta[r.Body[pos].Atom.Rel]) == 0 {
			continue
		}
		if err := join(0, make(query.Binding), pos); err != nil {
			return err
		}
	}
	return nil
}

// refMatch unifies atom a with tup under b, extending b in place. It
// returns the newly bound variables (non-nil on success) and nil on
// failure, leaving b unchanged then.
func refMatch(b query.Binding, a query.RelAtom, tup relation.Tuple) []string {
	if len(a.Args) != len(tup) {
		return nil
	}
	newly := make([]string, 0, 4)
	for i, t := range a.Args {
		v, bound := b.Resolve(t)
		if !bound {
			b[t.Name] = tup[i]
			newly = append(newly, t.Name)
			continue
		}
		if v != tup[i] {
			for _, nv := range newly {
				delete(b, nv)
			}
			return nil
		}
	}
	return newly
}

func refTuples(m map[string]relation.Tuple) []relation.Tuple {
	out := make([]relation.Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// refIDBs returns the arity of each IDB predicate (each head
// predicate), or an error when one heads rules of two arities.
func refIDBs(p *Program) (map[string]int, error) {
	out := make(map[string]int)
	for _, r := range p.Rules {
		if ar, ok := out[r.Head.Rel]; ok && ar != len(r.Head.Args) {
			return nil, fmt.Errorf("reference: IDB %s used with arities %d and %d", r.Head.Rel, ar, len(r.Head.Args))
		}
		out[r.Head.Rel] = len(r.Head.Args)
	}
	return out, nil
}

// refValidate is the reference's program check: body atoms are EDB
// relations with matching arity or IDB predicates with consistent
// arity; every rule is safe (every head and condition variable occurs
// in a positive body atom or is equated, transitively, to one that
// does or to a constant); the output predicate is an IDB and no head
// is an EDB relation.
func refValidate(p *Program, schemas map[string]*relation.Schema) error {
	idbs, err := refIDBs(p)
	if err != nil {
		return err
	}
	if _, ok := idbs[p.Output]; !ok {
		return fmt.Errorf("reference: output %s is not the head of any rule", p.Output)
	}
	for _, r := range p.Rules {
		if _, isEDB := schemas[r.Head.Rel]; isEDB {
			return fmt.Errorf("reference: rule head %s is an EDB relation", r.Head.Rel)
		}
		bound := make(map[string]bool)
		for _, l := range r.Body {
			if l.Atom == nil {
				continue
			}
			if s, ok := schemas[l.Atom.Rel]; ok {
				if len(l.Atom.Args) != s.Arity() {
					return fmt.Errorf("reference: atom %s has arity %d, schema wants %d", l.Atom, len(l.Atom.Args), s.Arity())
				}
			} else if ar, ok := idbs[l.Atom.Rel]; ok {
				if len(l.Atom.Args) != ar {
					return fmt.Errorf("reference: IDB atom %s has arity %d, rules want %d", l.Atom, len(l.Atom.Args), ar)
				}
			} else {
				return fmt.Errorf("reference: unknown predicate %s", l.Atom.Rel)
			}
			for _, t := range l.Atom.Args {
				if t.IsVar {
					bound[t.Name] = true
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, l := range r.Body {
				if l.Cond == nil || l.Cond.Neg {
					continue
				}
				c := *l.Cond
				lSafe := !c.L.IsVar || bound[c.L.Name]
				rSafe := !c.R.IsVar || bound[c.R.Name]
				if lSafe && c.R.IsVar && !bound[c.R.Name] {
					bound[c.R.Name] = true
					changed = true
				}
				if rSafe && c.L.IsVar && !bound[c.L.Name] {
					bound[c.L.Name] = true
					changed = true
				}
			}
		}
		for _, t := range r.Head.Args {
			if t.IsVar && !bound[t.Name] {
				return fmt.Errorf("reference: unsafe head variable %s in rule %s", t.Name, r)
			}
		}
		for _, l := range r.Body {
			if l.Cond == nil {
				continue
			}
			for _, t := range []query.Term{l.Cond.L, l.Cond.R} {
				if t.IsVar && !bound[t.Name] {
					return fmt.Errorf("reference: unsafe condition variable %s in rule %s", t.Name, r)
				}
			}
		}
	}
	return nil
}

// refCase is one randomized differential case: a program over the EDB
// schemas E(a,b), F(a) and G(a,b,c), and a database that may lack some
// of them.
type refCase struct {
	p       *Program
	schemas map[string]*relation.Schema
	d       *relation.Database
	// features the program exercises, tallied by the test
	features map[string]bool
}

// randomRefCase draws one to three IDBs of arity zero to two and a rule
// per IDB plus up to three more. Bodies hold one to three atoms over
// the variables x, y, z, w and the constants a to e; about one atom in
// ten of an IDB's first rule reads an IDB, half in the other rules, and
// some of those start with a path join I(x, z), J(z, y). Conditions are
// = and ≠ over the atoms' variables, constants and, rarely, v, which
// no atom binds; some rules bind a head variable through a chain
// h = u, u = x. v, and a rare head variable s that no atom binds, make
// some programs unsafe. Half the programs with a binary P also close E
// through P along paths (see below), so that recursion runs for many
// rounds and facts of different rounds meet in the differential join's
// base.
func randomRefCase(rng *rand.Rand) refCase {
	edbs := []*relation.Schema{
		relation.NewSchema("E", relation.Attr("a"), relation.Attr("b")),
		relation.NewSchema("F", relation.Attr("a")),
		relation.NewSchema("G", relation.Attr("a"), relation.Attr("b"), relation.Attr("c")),
	}
	rc := refCase{schemas: make(map[string]*relation.Schema), features: make(map[string]bool)}
	var inD []*relation.Schema
	for _, s := range edbs {
		rc.schemas[s.Name] = s
		if rng.Intn(6) == 0 {
			rc.features["EDB missing from D"] = true
			continue
		}
		inD = append(inD, s)
	}
	vals := []string{"a", "b", "c", "d", "e"}
	rc.d = relation.NewDatabase(inD...)
	for _, s := range inD {
		for i, n := 0, rng.Intn(12); i < n; i++ {
			tu := make([]string, s.Arity())
			for j := range tu {
				tu[j] = vals[rng.Intn(len(vals))]
			}
			if s.Name == "E" && rng.Intn(2) == 0 {
				// a path edge: long paths make recursion run many rounds
				k := rng.Intn(len(vals) - 1)
				tu[0], tu[1] = vals[k], vals[k+1]
			}
			rc.d.MustAdd(s.Name, tu...)
		}
	}

	idbNames := []string{"P", "Q", "R"}[:1+rng.Intn(3)]
	idbAr := make(map[string]int, len(idbNames))
	for _, n := range idbNames {
		idbAr[n] = []int{0, 1, 2, 2}[rng.Intn(4)]
	}
	pool := []string{"x", "y", "z", "w"}
	term := func(constProb int) (query.Term, bool) {
		if rng.Intn(constProb) == 0 {
			return query.C(vals[rng.Intn(len(vals))]), true
		}
		return query.Var(pool[rng.Intn(len(pool))]), false
	}
	deps := make(map[string]map[string]bool)
	nrules := len(idbNames) + rng.Intn(4)
	rules := make([]Rule, nrules)
	for ri := range rules {
		head := idbNames[ri%len(idbNames)]
		if ri >= len(idbNames) {
			head = idbNames[rng.Intn(len(idbNames))]
		}
		var body []Literal
		bodyVars := make(map[string]bool)
		idbAtoms := 0
		if ri >= len(idbNames) && rng.Intn(2) == 0 {
			// A path join of two binary IDBs, I(x, z), J(z, y): derived
			// in different rounds, their facts meet in the base.
			var bin []string
			for _, n := range idbNames {
				if idbAr[n] == 2 {
					bin = append(bin, n)
				}
			}
			if len(bin) > 0 {
				i, j := bin[rng.Intn(len(bin))], bin[rng.Intn(len(bin))]
				body = append(body, L(i, query.Var("x"), query.Var("z")), L(j, query.Var("z"), query.Var("y")))
				bodyVars["x"], bodyVars["y"], bodyVars["z"] = true, true, true
				idbAtoms = 2
				if deps[head] == nil {
					deps[head] = make(map[string]bool)
				}
				deps[head][i], deps[head][j] = true, true
			}
		}
		for i, n := 0, 1+rng.Intn(3)-len(body); i < n; i++ {
			rel, arity := "", 0
			// An IDB's first rule mostly reads EDBs only, so that most
			// IDBs have facts to recurse on.
			isIDB := rng.Intn(10) < 1 || ri >= len(idbNames) && rng.Intn(10) < 5
			if isIDB {
				rel = idbNames[rng.Intn(len(idbNames))]
				arity = idbAr[rel]
				idbAtoms++
				if deps[head] == nil {
					deps[head] = make(map[string]bool)
				}
				deps[head][rel] = true
			} else {
				s := edbs[rng.Intn(len(edbs))]
				rel, arity = s.Name, s.Arity()
			}
			args := make([]query.Term, arity)
			seen := make(map[string]bool)
			for j := range args {
				t, isConst := term(8)
				args[j] = t
				if isConst {
					rc.features["constant in body"] = true
					if isIDB {
						rc.features["IDB atom with constant"] = true
					}
				} else {
					if seen[t.Name] {
						rc.features["repeated variable"] = true
					}
					seen[t.Name] = true
					bodyVars[t.Name] = true
				}
			}
			body = append(body, L(rel, args...))
		}
		if idbAtoms > 1 {
			rc.features["two IDB atoms in a body"] = true
		}
		var bound []string
		for _, v := range pool {
			if bodyVars[v] {
				bound = append(bound, v)
			}
		}
		condTerm := func() query.Term {
			if len(bound) == 0 || rng.Intn(4) == 0 {
				return query.C(vals[rng.Intn(len(vals))])
			}
			return query.Var(bound[rng.Intn(len(bound))])
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			l, r := condTerm(), condTerm()
			if rng.Intn(12) == 0 {
				l = query.Var("v")
			}
			if rng.Intn(2) == 0 {
				body = append(body, LNeq(l, r))
				rc.features["≠"] = true
			} else {
				body = append(body, LEq(l, r))
				rc.features["="] = true
				if l.Name == "v" && !r.IsVar {
					rc.features["binding ="] = true
				}
			}
		}
		chain := len(bound) > 0 && rng.Intn(4) == 0
		if chain {
			// h = u written before u = x: the chain only closes once
			// both equalities are seen.
			body = append(body, LEq(query.Var("h"), query.Var("u")), LEq(query.Var("u"), query.Var(bound[rng.Intn(len(bound))])))
			rc.features["chained ="], rc.features["binding ="] = true, true
		}
		hargs := make([]query.Term, idbAr[head])
		for j := range hargs {
			switch k := rng.Intn(40); {
			case k < 6:
				hargs[j] = query.C(vals[rng.Intn(len(vals))])
				rc.features["constant in head"] = true
			case k == 6:
				hargs[j] = query.Var("s") // bound by no atom: unsafe
			case chain && k < 16:
				hargs[j] = query.Var("h")
			case len(bound) > 0:
				hargs[j] = query.Var(bound[rng.Intn(len(bound))])
			default:
				hargs[j] = query.C(vals[rng.Intn(len(vals))])
			}
		}
		rules[ri] = NewRule(query.Atom(head, hargs...), body...)
	}
	out := idbNames[rng.Intn(len(idbNames))]
	if idbAr["P"] == 2 && rng.Intn(2) == 0 {
		// The closure of E through P and a binary J, joined along a
		// path: facts of different rounds meet in the base, over the
		// many rounds that E's long paths take.
		j := idbNames[rng.Intn(len(idbNames))]
		if idbAr[j] != 2 {
			j = "P"
		}
		x, y, z := query.Var("x"), query.Var("y"), query.Var("z")
		rules = append(rules,
			NewRule(query.Atom("P", x, y), L("E", x, y)),
			NewRule(query.Atom("P", x, y), L("P", x, z), L(j, z, y)))
		if deps["P"] == nil {
			deps["P"] = make(map[string]bool)
		}
		deps["P"][j] = true
		if j != "P" {
			// J = G·E*: its long facts come late and meet P facts of
			// early rounds, which only the base holds by then.
			rules = append(rules,
				NewRule(query.Atom(j, x, y), L("G", x, y, query.Var("w"))),
				NewRule(query.Atom(j, x, y), L(j, x, z), L("E", z, y)))
			if deps[j] == nil {
				deps[j] = make(map[string]bool)
			}
			deps[j][j] = true
		}
		if rng.Intn(2) == 0 {
			out = "P"
		}
	}
	rc.p = NewProgram("rand", out, rules...)

	if len(idbNames) > 1 {
		rc.features["several IDBs"] = true
	}
	if idbAr[out] == 0 {
		rc.features["Boolean output"] = true
	}
	// Recursion: an IDB that reaches itself in the dependency graph;
	// mutual when the cycle passes through another IDB.
	var reach func(from, to string, seen map[string]bool) bool
	reach = func(from, to string, seen map[string]bool) bool {
		for next := range deps[from] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				if reach(next, to, seen) {
					return true
				}
			}
		}
		return false
	}
	for _, a := range idbNames {
		if reach(a, a, map[string]bool{}) {
			rc.features["recursion"] = true
		}
		for _, b := range idbNames {
			if a != b && reach(a, b, map[string]bool{}) && reach(b, a, map[string]bool{}) {
				rc.features["mutual recursion"] = true
			}
		}
	}
	return rc
}

// TestEvalMatchesReferenceRandom checks EvalGate against the reference
// on seeded random programs: the same sorted answers, and an error from
// both or from neither. Validate must agree with refValidate too.
func TestEvalMatchesReferenceRandom(t *testing.T) {
	const cases = 800
	rng := rand.New(rand.NewSource(2309))
	features := make(map[string]int)
	ok, nonEmpty, failed := 0, 0, 0
	for i := 0; i < cases; i++ {
		rc := randomRefCase(rng)
		want, wantErr := refEval(rc.p, rc.schemas, rc.d)
		got, gotErr := rc.p.EvalGate(rc.d, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("case %d: EvalGate error %v, reference error %v\n%s", i, gotErr, wantErr, rc.p)
		}
		if (refValidate(rc.p, rc.schemas) == nil) != (rc.p.Validate(rc.schemas) == nil) {
			t.Fatalf("case %d: Validate = %v, reference %v\n%s", i, rc.p.Validate(rc.schemas), refValidate(rc.p, rc.schemas), rc.p)
		}
		if wantErr != nil {
			failed++
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("case %d: EvalGate = %v, reference %v\n%s\nD:\n%s", i, got, want, rc.p, rc.d)
		}
		ok++
		if len(got) > 0 {
			nonEmpty++
		}
		for f := range rc.features {
			features[f]++
		}
	}
	t.Logf("%d programs: %d evaluated (%d non-empty), %d rejected; features %v", cases, ok, nonEmpty, failed, features)
	if ok < 500 || nonEmpty < 200 || failed < 20 {
		t.Fatalf("want ≥500 evaluated, ≥200 non-empty and ≥20 rejected programs; got %d, %d, %d", ok, nonEmpty, failed)
	}
	for _, f := range []string{"recursion", "mutual recursion", "several IDBs", "Boolean output",
		"constant in head", "constant in body", "repeated variable", "≠", "=", "binding =", "chained =",
		"IDB atom with constant", "EDB missing from D", "two IDB atoms in a body"} {
		if features[f] < 20 {
			t.Errorf("only %d evaluated programs with %s, want ≥20", features[f], f)
		}
	}
}

// tupleKey is a collision-free string encoding of a tuple, for keying
// test maps by tuple: each value is quoted.
func tupleKey(t relation.Tuple) string { return fmt.Sprintf("%q", []relation.Value(t)) }
