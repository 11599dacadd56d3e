package cc

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// TestMasterSideCacheInvalidation pins the p(Dm) memoization: the cache
// serves repeated checks against an unchanged Dm, and a mutation of the
// projected master instance (generation bump) or a different Dm
// invalidates it.
func TestMasterSideCacheInvalidation(t *testing.T) {
	d, dm := crmSchemas()
	dm.MustAdd("DCust", "c1", "Ann", "908", "5550001")
	d.MustAdd("Cust", "c1", "Ann", "01", "908", "5550001")
	d.MustAdd("Supt", "e0", "sales", "c1")
	phi := phi0()

	if ok, err := phi.Satisfied(d, dm); err != nil || !ok {
		t.Fatalf("phi0 should hold: ok=%v err=%v", ok, err)
	}
	// A new supported domestic customer, also added to the master: the
	// constraint must keep holding — only if the cached projection is
	// refreshed after dm changes.
	dm.MustAdd("DCust", "c2", "Eve", "973", "5550002")
	d.MustAdd("Cust", "c2", "Eve", "01", "973", "5550002")
	d.MustAdd("Supt", "e1", "sales", "c2")
	if ok, err := phi.Satisfied(d, dm); err != nil || !ok {
		t.Fatalf("phi0 should hold after master grows: ok=%v err=%v", ok, err)
	}
	// Removing the master row must flip the verdict (stale cache would
	// keep answering satisfied).
	dm.Instance("DCust").Remove(relation.T("c2", "Eve", "973", "5550002"))
	if ok, err := phi.Satisfied(d, dm); err != nil || ok {
		t.Fatalf("phi0 should be violated after master row removal: ok=%v err=%v", ok, err)
	}
	// A different master database (fresh instance pointers) gets its own
	// projection even at the same generation.
	_, dm2 := crmSchemas()
	dm2.MustAdd("DCust", "c1", "Ann", "908", "5550001")
	dm2.MustAdd("DCust", "c2", "Eve", "973", "5550002")
	if ok, err := phi.Satisfied(d, dm2); err != nil || !ok {
		t.Fatalf("phi0 should hold against the second master copy: ok=%v err=%v", ok, err)
	}
}

// TestSatisfiedDeltaAgreesWithFullRandom extends the fixed-case
// agreement test with randomized bases and deltas over the CRM schema,
// exercising the overlay evaluation (no union materialization) on
// overlapping and disjoint deltas alike. Each partially closed D also
// gets one prepared DeltaChecker, reused over several deltas in a row —
// violating ones included, so some probe runs stop early — and over one
// run whose 1-row gate trips, followed by an ungated run: every answer
// must still be the full recheck's.
func TestSatisfiedDeltaAgreesWithFullRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	cids := []string{"c1", "c2", "c3", "c4"}
	eids := []string{"e0", "e1"}
	acs := []string{"908", "973"}
	randDB := func(n int) *relation.Database {
		db, _ := crmSchemas()
		for i := 0; i < n; i++ {
			ci := cids[rng.Intn(len(cids))]
			switch rng.Intn(3) {
			case 0:
				db.MustAdd("Cust", ci, "n"+ci, []string{"01", "44"}[rng.Intn(2)], acs[rng.Intn(2)], "555")
			case 1:
				db.MustAdd("Supt", eids[rng.Intn(2)], "sales", ci)
			case 2:
				db.MustAdd("Cust", ci, "n"+ci, "01", acs[rng.Intn(2)], "555")
			}
		}
		return db
	}
	_, dm := crmSchemas()
	dm.MustAdd("DCust", "c1", "nc1", "908", "555")
	dm.MustAdd("DCust", "c2", "nc2", "973", "555")
	set := NewSet(phi0(), AtMostK("k1", "Supt", 3, []int{0}, 3, 1))

	full := func(d, delta *relation.Database) bool {
		ok, err := set.Satisfied(d.Union(delta), dm)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}

	trials, trips := 0, 0
	answers := map[bool]int{}
	for trial := 0; trial < 500 && trials < 200; trial++ {
		d := randDB(rng.Intn(5))
		if ok, err := set.Satisfied(d, dm); err != nil || !ok {
			continue // SatisfiedDelta's precondition requires (D, Dm) ⊨ V
		}
		trials++
		delta := randDB(rng.Intn(3) + 1)
		fast, err := set.SatisfiedDelta(d, delta, dm)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := set.Satisfied(d.Union(delta), dm)
		if err != nil {
			t.Fatal(err)
		}
		if fast != slow {
			t.Fatalf("trial %d: SatisfiedDelta=%v but full recheck=%v\nD:\n%v\ndelta:\n%v",
				trial, fast, slow, d, delta)
		}

		dc := set.NewDeltaChecker(d, dm)
		for k := 0; k < 4; k++ {
			delta := randDB(rng.Intn(3) + 1)
			got, err := dc.SatisfiedGate(cq.DeltaRowsOf(delta), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := full(d, delta)
			if got != want {
				t.Fatalf("trial %d delta %d: DeltaChecker=%v but full recheck=%v\nD:\n%v\ndelta:\n%v",
					trial, k, got, want, d, delta)
			}
			answers[got]++
		}
		delta = randDB(rng.Intn(3) + 2)
		want := full(d, delta)
		got, err := dc.SatisfiedGate(cq.DeltaRowsOf(delta), query.NewGate(context.Background(), 1, 0), nil)
		switch {
		case errors.Is(err, query.ErrRowBudget):
			trips++
		case err != nil:
			t.Fatalf("trial %d: gated run: %v", trial, err)
		case got != want:
			t.Fatalf("trial %d: gated DeltaChecker=%v but full recheck=%v", trial, got, want)
		}
		if got, err := dc.SatisfiedGate(cq.DeltaRowsOf(delta), nil, nil); err != nil || got != want {
			t.Fatalf("trial %d: ungated run after the gated one = %v, %v; full recheck=%v\nD:\n%v\ndelta:\n%v",
				trial, got, err, want, d, delta)
		}
		dc.Flush()
	}
	if trials < 100 {
		t.Fatalf("too few partially closed trials: %d", trials)
	}
	if answers[true] == 0 || answers[false] == 0 || trips == 0 {
		t.Fatalf("prepared checker coverage: %d satisfied, %d violated, %d gate trips; want all > 0",
			answers[true], answers[false], trips)
	}
}

// TestMasterProjectionHas pins the reuse-gate membership probe.
func TestMasterProjectionHas(t *testing.T) {
	_, dm := crmSchemas()
	dm.MustAdd("DCust", "c1", "Ann", "908", "5550001")
	phi := phi0()
	if !phi.MasterProjectionHas(dm, relation.T("c1", "Zoe", "999", "0000000")) {
		t.Fatal("projection (c1) should be present regardless of other columns")
	}
	if phi.MasterProjectionHas(dm, relation.T("c9", "Ann", "908", "5550001")) {
		t.Fatal("projection (c9) should be absent")
	}
	if phi.MasterProjectionHas(dm, relation.Tuple{}) {
		t.Fatal("short tuple should report false, not panic")
	}
	empty := New("e", phi.Q, EmptySet())
	if empty.MasterProjectionHas(dm, relation.T("c1")) {
		t.Fatal("empty-set projection has no members")
	}
}

// TestMasterCacheAlternatingDm pins that p(Dm) lives on the master
// instance: a constraint checked against two master databases in turn,
// as the miner scores a candidate on each of its evidence pairs, builds
// p(Dm) once per database and hits on every later switch. A second
// constraint over the same projection shares the memo.
func TestMasterCacheAlternatingDm(t *testing.T) {
	_, dm1 := crmSchemas()
	dm1.MustAdd("DCust", "c1", "Ann", "908", "5550001")
	_, dm2 := crmSchemas()
	dm2.MustAdd("DCust", "c2", "Eve", "973", "5550002")
	phi := phi0()
	first := map[*relation.Database]*relation.IDTupleSet{dm1: phi.MasterIDs(dm1), dm2: phi.MasterIDs(dm2)}
	hits0, misses0 := obs.PDmHits.Value(), obs.PDmMisses.Value()
	for i := 0; i < 6; i++ {
		for _, dm := range []*relation.Database{dm1, dm2} {
			if set := phi.MasterIDs(dm); set != first[dm] {
				t.Fatalf("round %d: p(Dm) rebuilt on a switch of Dm", i)
			}
			if set := phi0().MasterIDs(dm); set != first[dm] {
				t.Fatalf("round %d: a second constraint rebuilt p(Dm)", i)
			}
		}
	}
	if hits, misses := obs.PDmHits.Value()-hits0, obs.PDmMisses.Value()-misses0; hits != 24 || misses != 0 {
		t.Fatalf("alternating Dm: %d hits, %d misses; want 24 hits, 0 misses", hits, misses)
	}
}
