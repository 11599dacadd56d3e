package cc

import (
	"testing"

	"repro/internal/obs"
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
	if len(warm.rhs) != len(cold.rhs) {
		t.Fatalf("patched rhs size %d, cold %d", len(warm.rhs), len(cold.rhs))
	}
	for k := range cold.rhs {
		if !warm.rhs[k] {
			t.Fatalf("patched rhs missing key %q", k)
		}
	}
	if len(warm.rhsIDs) != len(cold.rhsIDs) {
		t.Fatalf("patched rhsIDs size %d, cold %d", len(warm.rhsIDs), len(cold.rhsIDs))
	}
	for k := range cold.rhsIDs {
		if !warm.rhsIDs[k] {
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
		if !pc.rhs[relation.T(cid).Key()] {
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
	if other.pcache.Load() != before || phi.pcache.Load() == nil {
		t.Fatal("memo over an untouched relation was replaced")
	}
	// Patch addressed to DCust updates both constraints projecting it.
	set.PatchMaster(dm, map[string]MasterPatch{"DCust": {PreGen: pre, Inserted: ins}})
	for _, c := range set.Constraints {
		pc := c.pcache.Load()
		if pc == nil || pc.gen != dm.Instance("DCust").Generation() {
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
