package cc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// TestPatchMasterExtendsMemo pins the copy-on-write memo patch: after
// an insert-only master batch plus PatchMaster, the memo answers at the
// new generation without a rebuild, and its contents equal a cold
// rebuild's.
func TestPatchMasterExtendsMemo(t *testing.T) {
	d, dm := crmSchemas()
	dm.MustAdd("DCust", "c1", "Ann", "908", "5550001")
	d.MustAdd("Cust", "c1", "Ann", "01", "908", "5550001")
	d.MustAdd("Supt", "e0", "sales", "c1")
	phi := phi0()
	set := NewSet(phi)
	if ok, err := phi.Satisfied(d, dm); err != nil || !ok {
		t.Fatalf("phi0 should hold: ok=%v err=%v", ok, err)
	}

	pre := dm.Instance("DCust").Generation()
	ins := []relation.Tuple{relation.T("c2", "Eve", "973", "5550002")}
	n, _, err := dm.ApplyBatch(relation.Batch{Inserts: map[string][]relation.Tuple{"DCust": ins}})
	if err != nil || n != 1 {
		t.Fatalf("batch: n=%d err=%v", n, err)
	}
	patches0 := obs.PDmPatches.Value()
	set.PatchMaster(dm, map[string]MasterPatch{"DCust": {PreGen: pre, Inserted: ins}})
	if got := obs.PDmPatches.Value() - patches0; got != 1 {
		t.Fatalf("patch counter delta = %d, want 1", got)
	}

	// The new customer supported in D is now covered by the patched
	// memo; the check must hit the memo, not rebuild it.
	d.MustAdd("Cust", "c2", "Eve", "01", "973", "5550002")
	d.MustAdd("Supt", "e1", "sales", "c2")
	misses0 := obs.PDmMisses.Value()
	if ok, err := phi.Satisfied(d, dm); err != nil || !ok {
		t.Fatalf("phi0 should hold after patch: ok=%v err=%v", ok, err)
	}
	if got := obs.PDmMisses.Value() - misses0; got != 0 {
		t.Fatalf("memo rebuilt despite patch (%d misses)", got)
	}

	// Contents equal a cold rebuild on a fresh constraint object.
	cold := phi0().masterCache(dm)
	warm := phi.masterCache(dm)
	if warm.rhsIDs.Len() != cold.rhsIDs.Len() {
		t.Fatalf("patched rhsIDs size %d, cold %d", warm.rhsIDs.Len(), cold.rhsIDs.Len())
	}
	for i := 0; i < cold.rhsIDs.Len(); i++ {
		if !warm.rhsIDs.Has(cold.rhsIDs.At(i)) {
			t.Fatalf("patched rhsIDs missing a key")
		}
	}
}

// TestPatchMasterStaleSkips pins the generation guard: a memo that
// missed earlier mutations must not be patched forward (it would lack
// those rows); the patch is skipped and the next access rebuilds.
func TestPatchMasterStaleSkips(t *testing.T) {
	_, dm := crmSchemas()
	dm.MustAdd("DCust", "c1", "Ann", "908", "5550001")
	phi := phi0()
	set := NewSet(phi)
	phi.masterCache(dm) // warm at generation g0

	// Out-of-band mutation the memo never saw.
	dm.MustAdd("DCust", "c2", "Eve", "973", "5550002")
	pre := dm.Instance("DCust").Generation()
	ins := []relation.Tuple{relation.T("c3", "Cal", "201", "5550003")}
	if _, _, err := dm.ApplyBatch(relation.Batch{Inserts: map[string][]relation.Tuple{"DCust": ins}}); err != nil {
		t.Fatal(err)
	}
	patches0 := obs.PDmPatches.Value()
	set.PatchMaster(dm, map[string]MasterPatch{"DCust": {PreGen: pre, Inserted: ins}})
	if got := obs.PDmPatches.Value() - patches0; got != 0 {
		t.Fatalf("stale memo was patched (%d patches)", got)
	}
	// Rebuild on next access yields the full projection.
	pc := phi.masterCache(dm)
	for _, cid := range []string{"c1", "c2", "c3"} {
		if id, ok := relation.Shared().ID(relation.Value(cid)); !ok || !pc.rhsIDs.Has([]int32{id}) {
			t.Fatalf("rebuilt memo missing %s", cid)
		}
	}
}

// TestPatchMasterSelective pins selective invalidation: patching one
// master relation leaves constraints over other relations with their
// memo object untouched.
func TestPatchMasterSelective(t *testing.T) {
	_, dm := crmSchemas()
	dm.MustAdd("DCust", "c1", "Ann", "908", "5550001")
	phi := phi0()
	other := phi0()
	other.Name = "phi0b"
	set := NewSet(phi, other)
	phi.masterCache(dm)
	before := other.masterCache(dm)

	pre := dm.Instance("DCust").Generation()
	ins := []relation.Tuple{relation.T("c2", "Eve", "973", "5550002")}
	if _, _, err := dm.ApplyBatch(relation.Batch{Inserts: map[string][]relation.Tuple{"DCust": ins}}); err != nil {
		t.Fatal(err)
	}
	// Patch addressed to a relation neither memo projects: both stay.
	set.PatchMaster(dm, map[string]MasterPatch{"Unrelated": {PreGen: pre, Inserted: ins}})
	dcust := dm.Instance("DCust")
	if _, pc := other.cachedProjection(dcust, pre); pc != before {
		t.Fatal("memo over an untouched relation was replaced")
	}
	if _, pc := phi.cachedProjection(dcust, pre); pc == nil {
		t.Fatal("memo over an untouched relation was dropped")
	}
	// Patch addressed to DCust updates both constraints projecting it.
	set.PatchMaster(dm, map[string]MasterPatch{"DCust": {PreGen: pre, Inserted: ins}})
	for _, c := range set.Constraints {
		if _, pc := c.cachedProjection(dcust, dcust.Generation()); pc == nil {
			t.Fatalf("constraint %s memo not advanced", c.Name)
		}
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

// sameIDTuples reports whether two id-tuple sets hold the same tuples.
func sameIDTuples(a, b *relation.IDTupleSet) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !b.Has(a.At(i)) {
			return false
		}
	}
	return true
}

// TestPatchMasterMatchesRebuildRandom patches the id-tuple p(Dm) memo
// through seeded random insert batches — new customers, duplicates of
// rows already in DCust and rows whose projection is already present —
// for projections of widths 0 to 3. After each batch the memo must be
// served without a rebuild and hold exactly the set a fresh constraint
// rebuilds from the patched master relation.
func TestPatchMasterMatchesRebuildRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	val := func(p string, n int) string { return fmt.Sprintf("%s%d", p, rng.Intn(n)) }
	row := func() relation.Tuple {
		return relation.T(val("c", 30), val("n", 4), val("a", 3), val("p", 5))
	}
	for _, cols := range [][]int{nil, {0}, {2, 0}, {1, 2, 3}} {
		newPhi := func() *Constraint {
			head := make([]query.Term, len(cols))
			for i := range head {
				head[i] = v(fmt.Sprintf("x%d", i))
			}
			q := cq.New("q", head, []query.RelAtom{query.Atom("Supt", v("x0"), v("x1"), v("x2"))})
			return FromCQ("q", q, Proj("DCust", cols...))
		}
		_, dm := crmSchemas()
		for i := 0; i < 5; i++ {
			if err := dm.Add("DCust", row()); err != nil {
				t.Fatal(err)
			}
		}
		phi := newPhi()
		set := NewSet(phi)
		phi.masterCache(dm)
		for batch := 0; batch < 20; batch++ {
			var ins []relation.Tuple
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				ins = append(ins, row())
			}
			if existing := dm.Instance("DCust").Tuples(); rng.Intn(3) == 0 {
				ins = append(ins, existing[rng.Intn(len(existing))])
			}
			pre := dm.Instance("DCust").Generation()
			if _, _, err := dm.ApplyBatch(relation.Batch{Inserts: map[string][]relation.Tuple{"DCust": ins}}); err != nil {
				t.Fatal(err)
			}
			set.PatchMaster(dm, map[string]MasterPatch{"DCust": {PreGen: pre, Inserted: ins}})
			misses0 := obs.PDmMisses.Value()
			warm := phi.masterCache(dm)
			if got := obs.PDmMisses.Value() - misses0; got != 0 {
				t.Fatalf("cols %v batch %d: memo rebuilt after the patch", cols, batch)
			}
			if cold := newPhi().masterCache(dm); !sameIDTuples(warm.rhsIDs, cold.rhsIDs) {
				t.Fatalf("cols %v batch %d: patched set (%d tuples) differs from the rebuilt one (%d)", cols, batch, warm.rhsIDs.Len(), cold.rhsIDs.Len())
			}
		}
	}
}

// TestMasterCacheAlternatingDm pins the memo's slots: a constraint
// checked against two master databases in turn, as the miner scores a
// candidate on each of its evidence pairs, builds p(Dm) once per
// database and hits on every later switch.
func TestMasterCacheAlternatingDm(t *testing.T) {
	_, dm1 := crmSchemas()
	dm1.MustAdd("DCust", "c1", "Ann", "908", "5550001")
	_, dm2 := crmSchemas()
	dm2.MustAdd("DCust", "c2", "Eve", "973", "5550002")
	phi := phi0()
	first := map[*relation.Database]*projCache{dm1: phi.masterCache(dm1), dm2: phi.masterCache(dm2)}
	hits0, misses0 := obs.PDmHits.Value(), obs.PDmMisses.Value()
	for i := 0; i < 6; i++ {
		for _, dm := range []*relation.Database{dm1, dm2} {
			if pc := phi.masterCache(dm); pc != first[dm] {
				t.Fatalf("round %d: p(Dm) rebuilt on a switch of Dm", i)
			}
		}
	}
	if hits, misses := obs.PDmHits.Value()-hits0, obs.PDmMisses.Value()-misses0; hits < 12 || misses != 0 {
		t.Fatalf("alternating Dm: %d hits, %d misses; want 12 hits, 0 misses", hits, misses)
	}
}
