package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/mdm"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// The incremental recheck's contract is oracle-shaped: whatever mix of
// reuse and fallback RecheckDeltaCtx picks, the result must be
// bit-identical (verdict, reason, witness bytes, enumeration position,
// and at Workers=1 the valuation count) to a cold RCDP run over freshly
// rebuilt databases and a fresh constraint set. These tests pin that
// contract on randomized mutation scripts at Workers 1 and 8, and pin
// the gate itself: it must fire on
// invisible master inserts and refuse everything else.

// The cold oracle rebuilds its inputs with the rebuildDB helper of
// helpers_test.go: fresh storage, no warm indexes, memos or caches.

// sameRecheck extends sameRCDP with the three-valued fields.
func sameRecheck(got, want *RCDPResult) bool {
	return got.Verdict == want.Verdict && got.Reason == want.Reason && sameRCDP(got, want)
}

// randomCRMDelta draws one mutation batch against the CRM scenario:
// master- or database-targeted, mixing pure duplicates, vocabulary-
// preserving column swaps (gate candidates when master-side), fresh
// values (gate must refuse) and occasional deletes of present rows.
func randomCRMDelta(rng *rand.Rand, d, dm *relation.Database) *Delta {
	dl := &Delta{
		Master:  rng.Intn(2) == 0,
		Inserts: map[string][]relation.Tuple{},
		Deletes: map[string][]relation.Tuple{},
	}
	target := d
	if dl.Master {
		target = dm
	}
	rels := target.Relations()
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		rel := rels[rng.Intn(len(rels))]
		ts := target.Instance(rel).Tuples()
		if len(ts) == 0 {
			continue
		}
		base := ts[rng.Intn(len(ts))].Clone()
		switch rng.Intn(3) {
		case 0: // pure duplicate
		case 1: // swap one column to another row's value in that column
			base[rng.Intn(len(base))] = ts[rng.Intn(len(ts))][rng.Intn(len(base))]
		case 2: // brand-new value: extensionally visible
			base[rng.Intn(len(base))] = relation.Value(fmt.Sprintf("fresh%d", rng.Intn(40)))
		}
		dl.Inserts[rel] = append(dl.Inserts[rel], base)
	}
	if rng.Intn(4) == 0 {
		rel := rels[rng.Intn(len(rels))]
		if ts := target.Instance(rel).Tuples(); len(ts) > 0 {
			dl.Deletes[rel] = append(dl.Deletes[rel], ts[rng.Intn(len(ts))].Clone())
		}
	}
	return dl
}

// TestRecheckDeltaMatchesColdCRM runs randomized mutation scripts over
// the generated CRM scenario and cross-validates every incremental
// answer against a cold rerun, at Workers 1 and 8.
func TestRecheckDeltaMatchesColdCRM(t *testing.T) {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 14
	cfg.Employees = 3
	cfg.Completeness = 0.8

	for _, workers := range []int{1, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		rng := rand.New(rand.NewSource(97))
		s := mdm.Generate(cfg)
		d, dm := s.D, s.Dm
		v := mdmSet(cfg)
		q := mdm.Q0("908")
		ck := &Checker{Workers: workers}

		prev, err := ck.RCDPCtx(context.Background(), q, d, dm, v)
		if err != nil {
			t.Fatalf("%s: initial check: %v", name, err)
		}
		reused, cold := 0, 0
		for step := 0; step < 20; step++ {
			dl := randomCRMDelta(rng, d, dm)
			got, didReuse, gerr := ck.RecheckDeltaCtx(context.Background(), q, d, dm, v, prev, dl)

			// Cold oracle: fresh databases, fresh constraint set,
			// nothing warm, over the post-batch state.
			cd, cdm := rebuildDB(t, d), rebuildDB(t, dm)
			want, werr := ck.RCDPCtx(context.Background(), q, cd, cdm, mdmSet(cfg))

			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s step %d: incremental err=%v cold err=%v\ndelta: %+v",
					name, step, gerr, werr, dl)
			}
			if gerr != nil {
				prev = nil // no valid result for the mutated state
				continue
			}
			if !sameRecheck(got, want) {
				t.Fatalf("%s step %d (reused=%v): incremental and cold disagree\ndelta: %+v\nincremental: %+v\ncold: %+v",
					name, step, didReuse, dl, got, want)
			}
			if workers == 1 && got.Stats.Valuations != want.Stats.Valuations {
				t.Fatalf("%s step %d (reused=%v): valuation counts diverge: incremental %d cold %d",
					name, step, didReuse, got.Stats.Valuations, want.Stats.Valuations)
			}
			if didReuse {
				reused++
			} else {
				cold++
			}
			prev = got
		}
		// The fixed seed makes the script deterministic: both paths
		// must actually be exercised.
		if reused == 0 || cold == 0 {
			t.Fatalf("%s: script exercised reuse %d times, cold %d times", name, reused, cold)
		}
	}
}

// recheckMicro builds the micro setting the reuse property test runs
// on: D over R(a, b), master M2(x, y) with the IND R[0] ⊆ π₀(M2), and
// the two-atom chain query q(x, z) :- R(x, y), R(y, z) whose witness
// deltas have the duplicate-invocation shape of the cq delta-evaluation
// regression ({R(a,b), R(b,c)} feeding one head through two atoms).
func recheckMicro(rng *rand.Rand) (qlang.Query, *relation.Database, *relation.Database, func() *cc.Set) {
	r := relation.NewSchema("R", relation.Attr("a"), relation.Attr("b"))
	m2 := relation.NewSchema("M2", relation.Attr("x"), relation.Attr("y"))
	d := relation.NewDatabase(r)
	dm := relation.NewDatabase(m2)
	// π₀(M2) = {a, b} keeps any R over {a, b} partially closed, and
	// seeds both values into Adom.
	dm.MustAdd("M2", "a", "a")
	dm.MustAdd("M2", "b", "a")
	vals := []string{"a", "b"}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		d.MustAdd("R", vals[rng.Intn(2)], vals[rng.Intn(2)])
	}
	q := qlang.FromCQ(cq.New("chain", []query.Term{v("x"), v("z")},
		[]query.RelAtom{query.Atom("R", v("x"), v("y")), query.Atom("R", v("y"), v("z"))}))
	mkSet := func() *cc.Set {
		return cc.NewSet(cc.NewIND("i0", "R", []int{0}, 2, cc.Proj("M2", 0)))
	}
	return q, d, dm, mkSet
}

// TestRecheckDeltaReuseProperty is the witness-reuse property test:
// randomized insert scripts against Dm constructed to pass the
// invisibility gate must reuse the cached result, and that result must
// agree with a cold RCDP rerun on verdict AND witness bytes. Occasional
// master deletes are mixed in to pin the other side — the gate refuses
// them and the fallback still agrees with the oracle.
func TestRecheckDeltaReuseProperty(t *testing.T) {
	for _, workers := range []int{1, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		rng := rand.New(rand.NewSource(11))
		q, d, dm, mkSet := recheckMicro(rng)
		set := mkSet()
		ck := &Checker{Workers: workers}

		prev, err := ck.RCDPCtx(context.Background(), q, d, dm, set)
		if err != nil {
			t.Fatalf("%s: initial check: %v", name, err)
		}
		reuses := 0
		for step := 0; step < 40; step++ {
			var dl *Delta
			wantReuse := prev != nil && rng.Intn(5) > 0
			ts := dm.Instance("M2").Tuples()
			if !wantReuse {
				// Pick a delete that keeps R[0] ⊆ π₀(M2), so the script
				// never loses partial closure: either the projection
				// value occurs on another row, or R never references it.
				var cand relation.Tuple
				for _, tu := range ts {
					occurs, used := 0, false
					for _, o := range ts {
						if o[0] == tu[0] {
							occurs++
						}
					}
					for _, rt := range d.Instance("R").Tuples() {
						if rt[0] == tu[0] {
							used = true
							break
						}
					}
					if occurs > 1 || !used {
						cand = tu.Clone()
						break
					}
				}
				if cand != nil {
					dl = &Delta{Master: true, Deletes: map[string][]relation.Tuple{"M2": {cand}}}
				} else {
					wantReuse = prev != nil // no safe delete this round
				}
			}
			if wantReuse {
				// Projection-preserving, vocabulary-preserving master
				// inserts: x from the live π₀(M2), y from the live active
				// domain (earlier deletes may have evicted a value, so
				// the static seed pool is not enough).
				adom := append(d.ActiveDomain(), dm.ActiveDomain()...)
				ins := make([]relation.Tuple, 1+rng.Intn(2))
				for i := range ins {
					x := ts[rng.Intn(len(ts))][0]
					y := adom[rng.Intn(len(adom))]
					ins[i] = relation.Tuple{x, y}
				}
				dl = &Delta{Master: true, Inserts: map[string][]relation.Tuple{"M2": ins}}
			}
			if dl == nil {
				continue // no valid result and no safe delete this round
			}

			if wantReuse && !dl.WitnessReusable(q, d, dm, set) {
				t.Fatalf("%s step %d: constructed invisible delta rejected by gate: %+v", name, step, dl)
			}
			got, didReuse, gerr := ck.RecheckDeltaCtx(context.Background(), q, d, dm, set, prev, dl)
			cd, cdm := rebuildDB(t, d), rebuildDB(t, dm)
			want, werr := ck.RCDPCtx(context.Background(), q, cd, cdm, mkSet())
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s step %d: incremental err=%v cold err=%v", name, step, gerr, werr)
			}
			if gerr != nil {
				prev = nil
				continue
			}
			if wantReuse != didReuse {
				t.Fatalf("%s step %d: reuse=%v, want %v (delta %+v)", name, step, didReuse, wantReuse, dl)
			}
			if !sameRecheck(got, want) {
				t.Fatalf("%s step %d (reused=%v): results diverge\nincremental: %+v\ncold: %+v",
					name, step, didReuse, got, want)
			}
			if workers == 1 && got.Stats.Valuations != want.Stats.Valuations {
				t.Fatalf("%s step %d: valuations diverge: %d vs %d", name, step, got.Stats.Valuations, want.Stats.Valuations)
			}
			if didReuse {
				reuses++
			}
			prev = got
		}
		if reuses < 10 {
			t.Fatalf("%s: only %d reuses over the script", name, reuses)
		}
	}
}

// TestRecheckDeltaGate pins the invisibility gate's individual clauses.
func TestRecheckDeltaGate(t *testing.T) {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 8
	cfg.Employees = 2
	s := mdm.Generate(cfg)
	d, dm := s.D, s.Dm
	set := mdmSet(cfg)
	q := mdm.Q0("908")

	master := dm.Instance(mdm.DCust).Tuples()[0]
	dup := master.Clone()
	renamed := master.Clone()
	renamed[1] = dm.Instance(mdm.DCust).Tuples()[1][1] // another row's name: Adom-preserving
	freshVal := master.Clone()
	freshVal[3] = "5559999" // phone never seen anywhere
	newProj := master.Clone()
	newProj[0] = dm.Instance(mdm.DCust).Tuples()[1][0] // (cid', ac) pair not in π₀,₂

	cases := []struct {
		name string
		dl   *Delta
		want bool
	}{
		{"empty", &Delta{}, true},
		{"master-duplicate", &Delta{Master: true,
			Inserts: map[string][]relation.Tuple{mdm.DCust: {dup}}}, true},
		{"master-invisible-rename", &Delta{Master: true,
			Inserts: map[string][]relation.Tuple{mdm.DCust: {renamed}}}, true},
		{"master-fresh-value", &Delta{Master: true,
			Inserts: map[string][]relation.Tuple{mdm.DCust: {freshVal}}}, false},
		{"master-new-projection", &Delta{Master: true,
			Inserts: map[string][]relation.Tuple{mdm.DCust: {newProj}}}, false},
		{"master-delete", &Delta{Master: true,
			Deletes: map[string][]relation.Tuple{mdm.DCust: {dup}}}, false},
		{"database-targeted", &Delta{Master: false,
			Inserts: map[string][]relation.Tuple{mdm.Cust: {d.Instance(mdm.Cust).Tuples()[0].Clone()}}}, false},
	}
	for _, tc := range cases {
		if got := tc.dl.WitnessReusable(q, d, dm, set); got != tc.want {
			t.Errorf("%s: WitnessReusable = %v, want %v", tc.name, got, tc.want)
		}
	}

	// A master insert whose only new value is a constant of Q is
	// invisible to Q, whose Adom(D, Dm, Q, V) already holds the value,
	// but not to a query without that constant. The name column is not
	// projected by φ₀ (π[cid, ac]), so the containment half holds.
	named := master.Clone()
	named[1] = "nameQ"
	qNamed := namedQ0("908", "nameQ")
	constIns := &Delta{Master: true, Inserts: map[string][]relation.Tuple{mdm.DCust: {named}}}
	if !constIns.WitnessReusable(qNamed, d, dm, set) {
		t.Error("query-constant insert: WitnessReusable(Q with the constant) = false, want true")
	}
	if constIns.WitnessReusable(q, d, dm, set) {
		t.Error("query-constant insert: WitnessReusable(Q without the constant) = true, want false")
	}
	if g := constIns.Gate(d, dm, set); !g.invisible(qNamed) || g.invisible(q) {
		t.Errorf("query-constant insert: one gate says %v for Q with the constant and %v without, want true and false",
			g.invisible(qNamed), g.invisible(q))
	}

	// The new-projection case must flip once the projection exists: after
	// applying it, the same shape becomes invisible.
	if _, _, err := (&Delta{Master: true,
		Inserts: map[string][]relation.Tuple{mdm.DCust: {newProj}}}).Apply(d, dm, set); err != nil {
		t.Fatal(err)
	}
	again := newProj.Clone()
	again[1] = master[1]
	dl := &Delta{Master: true, Inserts: map[string][]relation.Tuple{mdm.DCust: {again}}}
	if !dl.WitnessReusable(q, d, dm, set) {
		t.Fatal("projection inserted by a previous batch should now be invisible")
	}
}

// TestRecheckDeltaReusesVerdicts walks one deterministic scenario
// through all three reusable verdict shapes: Incomplete with witness
// revalidation, Complete, and Unknown under the valuation cap — each
// answered from cache with the reuse counter advancing — plus the
// non-reusable Unknown reasons, which must go cold.
func TestRecheckDeltaReusesVerdicts(t *testing.T) {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 8
	cfg.Employees = 2
	cfg.Completeness = 0.5 // some domestic customers missing: incomplete
	s := mdm.Generate(cfg)
	d, dm := s.D, s.Dm
	set := mdmSet(cfg)
	q := mdm.Q0("908")
	ck := &Checker{Workers: 1}

	invisible := func() *Delta {
		return &Delta{Master: true, Inserts: map[string][]relation.Tuple{
			mdm.DCust: {dm.Instance(mdm.DCust).Tuples()[0].Clone()},
		}}
	}

	prev, err := ck.RCDPCtx(context.Background(), q, d, dm, set)
	if err != nil || prev.Verdict != VerdictIncomplete {
		t.Fatalf("seed check: verdict=%v err=%v", prev.Verdict, err)
	}
	reused0 := obs.RecheckReused.Value()
	got, didReuse, err := ck.RecheckDeltaCtx(context.Background(), q, d, dm, set, prev, invisible())
	if err != nil || !didReuse || got != prev {
		t.Fatalf("incomplete verdict not reused: reuse=%v err=%v", didReuse, err)
	}
	if obs.RecheckReused.Value() != reused0+1 {
		t.Fatal("reuse counter did not advance")
	}

	// Unknown under the deterministic valuation cap is reusable...
	capped := &Checker{Workers: 1, Budget: Budget{MaxValuations: 1}}
	prevU, err := capped.RCDPCtx(context.Background(), q, d, dm, set)
	if err != nil || prevU.Verdict != VerdictUnknown || prevU.Reason != ReasonValuations {
		t.Fatalf("capped check: verdict=%v reason=%v err=%v", prevU.Verdict, prevU.Reason, err)
	}
	if got, didReuse, err = capped.RecheckDeltaCtx(context.Background(), q, d, dm, set, prevU, invisible()); err != nil || !didReuse || got != prevU {
		t.Fatalf("valuation-capped unknown not reused: reuse=%v err=%v", didReuse, err)
	}
	// ...while a wall-clock Unknown is not, even for an invisible delta.
	timed := *prevU
	timed.Reason = ReasonDeadline
	if _, didReuse, err = ck.RecheckDeltaCtx(context.Background(), q, d, dm, set, &timed, invisible()); err != nil || didReuse {
		t.Fatalf("deadline unknown must go cold: reuse=%v err=%v", didReuse, err)
	}

	// A Complete verdict reuses too: close the gap behind a query whose
	// answer set cannot grow, then recheck under an invisible insert.
	qDone := mdm.Q0("000") // no such area code anywhere: trivially complete
	prevC, err := ck.RCDPCtx(context.Background(), qDone, d, dm, set)
	if err != nil || prevC.Verdict != VerdictComplete {
		t.Fatalf("complete seed: verdict=%v err=%v", prevC.Verdict, err)
	}
	if got, didReuse, err = ck.RecheckDeltaCtx(context.Background(), qDone, d, dm, set, prevC, invisible()); err != nil || !didReuse || got != prevC {
		t.Fatalf("complete verdict not reused: reuse=%v err=%v", didReuse, err)
	}
}

// namedQ0 is mdm.Q0(ac) with the customer name selected as well, so
// the name is a constant of the query.
func namedQ0(ac, name string) qlang.Query {
	return qlang.FromCQ(cq.New("Q0n", []query.Term{v("c")},
		[]query.RelAtom{
			query.Atom(mdm.Cust, v("c"), v("n"), v("cc"), v("a"), v("p")),
			query.Atom(mdm.Supt, v("e"), v("d"), v("c")),
		},
		query.Eq(v("cc"), query.C("01")),
		query.Eq(v("a"), query.C(ac)),
		query.Eq(v("n"), query.C(name))))
}

// referenceInvisible is the gate restated over strings, for one query
// at a time: the delta is a master-side insert, every inserted tuple's
// projection occurs in each affected constraint's p(Dm), and every
// inserted value occurs in D, in Dm, or among the constants of Q and V.
func referenceInvisible(dl *Delta, q qlang.Query, d, dm *relation.Database, set *cc.Set) bool {
	if dl.Empty() {
		return true
	}
	if !dl.Master || !dl.InsertOnly() {
		return false
	}
	key := func(t relation.Tuple) string { return fmt.Sprintf("%q", t) }
	for _, c := range set.Constraints {
		if c.P.IsEmptySet() {
			continue
		}
		proj := make(map[string]bool)
		for _, t := range dm.Instance(c.P.Rel).Project(c.P.Cols) {
			proj[key(t)] = true
		}
		for _, t := range dl.Inserts[c.P.Rel] {
			if !proj[key(t.Project(c.P.Cols))] {
				return false
			}
		}
	}
	adom := make(map[relation.Value]bool)
	for _, vals := range [][]relation.Value{d.ActiveDomain(), dm.ActiveDomain(), q.Constants(), set.Constants()} {
		for _, val := range vals {
			adom[val] = true
		}
	}
	for _, ts := range dl.Inserts {
		for _, t := range ts {
			for _, val := range t {
				if !adom[val] {
					return false
				}
			}
		}
	}
	return true
}

// TestDeltaGateMatchesPerQuery runs random master and database inserts
// and deletes over the CRM scenario. At every step one gate, evaluated
// once, must give each of several queries the answer of a separate
// WitnessReusable call and of the string-level reference. Some inserted
// values are constants of some queries only, so the gate must also
// split its answer between queries.
func TestDeltaGateMatchesPerQuery(t *testing.T) {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 12
	cfg.Employees = 3
	cfg.Completeness = 0.6
	s := mdm.Generate(cfg)
	d, dm := s.D, s.Dm
	rng := rand.New(rand.NewSource(5))
	invisible, split := 0, 0
	for step := 0; step < 200; step++ {
		// Constants unseen so far, drawn into both the queries and the
		// delta: a value applied in one step is in Adom afterwards.
		ac, emp, name, dept := fmt.Sprintf("0%d", step), fmt.Sprintf("x%d", step),
			fmt.Sprintf("nameQ%d", step), fmt.Sprintf("dept%d", step)
		queries := []qlang.Query{
			mdm.Q0("908"), mdm.Q0(ac), mdm.Q1(emp, "201"), mdm.Q2("e00"), namedQ0("908", name),
		}
		// φ₀, φ₁ and a constraint with the constant dept, so that V's
		// constants count as Adom too.
		phiV := cc.FromCQ("phiV", cq.New("phiV", []query.Term{v("c")},
			[]query.RelAtom{query.Atom(mdm.Supt, v("e"), v("d"), v("c"))},
			query.Eq(v("d"), query.C(dept))), cc.Proj(mdm.DCust, 0))
		set := cc.NewSet(mdm.Phi0(), mdm.Phi1(cfg.MaxSupport), phiV)
		pool := []relation.Value{relation.Value(ac), relation.Value(emp), relation.Value(name),
			relation.Value(dept), "fresh"}
		dl := randomCRMDelta(rng, d, dm)
		if rng.Intn(2) == 0 {
			// A master row with one value swapped for a pool constant:
			// contained unless the swapped column is projected.
			rel := []string{mdm.DCust, mdm.ManageM}[rng.Intn(2)]
			ts := dm.Instance(rel).Tuples()
			tu := ts[rng.Intn(len(ts))].Clone()
			tu[rng.Intn(len(tu))] = pool[rng.Intn(len(pool))]
			dl = &Delta{Master: true, Inserts: map[string][]relation.Tuple{rel: {tu}}}
		}
		g := dl.Gate(d, dm, set)
		seen := map[bool]bool{}
		for i, q := range queries {
			got := g.invisible(q)
			if one := dl.WitnessReusable(q, d, dm, set); got != one {
				t.Fatalf("step %d query %d: gate says %v, WitnessReusable %v (delta %+v)", step, i, got, one, dl)
			}
			if want := referenceInvisible(dl, q, d, dm, set); got != want {
				t.Fatalf("step %d query %d: gate says %v, reference %v (delta %+v)", step, i, got, want, dl)
			}
			seen[got] = true
			if got {
				invisible++
			}
		}
		if len(seen) == 2 {
			split++
		}
		if _, _, err := dl.Apply(d, dm, set); err != nil {
			t.Fatalf("step %d: apply: %v", step, err)
		}
	}
	// The fixed seed makes the script deterministic: both answers, and
	// gates that answer differently per query, must occur.
	if invisible == 0 || split == 0 {
		t.Fatalf("script produced %d invisible answers and %d split gates", invisible, split)
	}
	t.Logf("%d invisible answers, %d split gates", invisible, split)
}
