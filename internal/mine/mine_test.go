package mine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/mdm"
	"repro/internal/obs"
	"repro/internal/relation"
)

// evidenceConfig is the base mining-evidence scenario: fully complete,
// saturated support, with unregistered domestic customers as negative
// examples for spurious Cust-only fragments.
func evidenceConfig() mdm.Config {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 12
	cfg.InternationalCustomers = 4
	cfg.SaturateSupport = true
	cfg.UnregisteredDomestic = 3
	return cfg
}

func mineOver(t *testing.T, cfg mdm.Config, n int, opt Options) (*Result, []Pair) {
	t.Helper()
	scens := mdm.Evidence(cfg, n)
	pairs := make([]Pair, len(scens))
	for i, s := range scens {
		pairs[i] = Pair{D: s.D, Dm: s.Dm}
	}
	res, err := Mine(context.Background(), pairs, opt)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	return res, pairs
}

func sigs(res *Result) map[string]bool {
	out := make(map[string]bool)
	for _, m := range res.Mined {
		out[m.Signature] = true
	}
	return out
}

func mustSig(t *testing.T, c *cc.Constraint) string {
	t.Helper()
	s, ok := Signature(c)
	if !ok {
		t.Fatalf("no signature for %s", c.Name)
	}
	return s
}

// TestMineRecoversINDRegime: on standard CRM evidence (support only
// for domestic customers) mining emits exactly the blanket inclusion
// dependencies — CidIND and ManageIND — and the subsumption-aware
// evaluation reports full precision and recall (CidIND entails φ₀).
func TestMineRecoversINDRegime(t *testing.T) {
	res, pairs := mineOver(t, evidenceConfig(), 6, Options{})
	got := sigs(res)
	want := map[string]bool{
		mustSig(t, mdm.CidIND()):    true,
		mustSig(t, mdm.ManageIND()): true,
	}
	if len(got) != len(want) {
		t.Fatalf("emitted %d constraints, want %d: %v", len(got), len(want), got)
	}
	for s := range want {
		if !got[s] {
			t.Fatalf("missing expected constraint %s; got %v", s, got)
		}
	}
	for _, m := range res.Mined {
		if !m.Validated {
			t.Fatalf("emitted constraint %s not oracle-validated", m.Constraint.Name)
		}
		if m.Confidence != 1.0 {
			t.Fatalf("emitted constraint %s with confidence %v", m.Constraint.Name, m.Confidence)
		}
		if m.Support < 0 || m.Support > 1 {
			t.Fatalf("support out of range: %v", m.Support)
		}
	}
	ev := Evaluate(res.Mined, mdm.PlantedConstraints(), SchemasOf(pairs))
	if ev.Precision != 1.0 || ev.Recall != 1.0 {
		t.Fatalf("IND regime precision/recall = %v/%v (extra %v, matched %v)",
			ev.Precision, ev.Recall, ev.Extra, ev.Matched)
	}
}

// TestMineRecoversJoinRegime: with supported international customers
// the blanket IND π_cid(Supt) ⊆ π_cid(DCust) is false, and mining must
// fall back to the paper's φ₀ join+selection shape
// σ_cc='01'(Cust ⋈ Supt) ⊆ π_cid(DCust).
func TestMineRecoversJoinRegime(t *testing.T) {
	cfg := evidenceConfig()
	cfg.SupportInternational = 3
	res, pairs := mineOver(t, cfg, 6, Options{})
	got := sigs(res)
	phi0 := mustSig(t, mdm.Phi0Cid())
	cid := mustSig(t, mdm.CidIND())
	manage := mustSig(t, mdm.ManageIND())
	if !got[phi0] {
		t.Fatalf("join regime did not recover φ₀ (%s); got %v", phi0, got)
	}
	if !got[manage] {
		t.Fatalf("join regime did not recover ManageIND; got %v", got)
	}
	if got[cid] {
		t.Fatalf("join regime emitted CidIND, which is false on this evidence")
	}
	if len(got) != 2 {
		t.Fatalf("emitted %d constraints, want 2: %v", len(got), got)
	}
	ev := Evaluate(res.Mined, mdm.PlantedConstraints(), SchemasOf(pairs))
	if ev.Precision != 1.0 {
		t.Fatalf("join regime precision = %v (extra %v)", ev.Precision, ev.Extra)
	}
	// CidIND is genuinely false on this evidence, so recall against the
	// full planted set is exactly 2/3.
	if ev.Matched["cidIND"] || !ev.Matched["phi0cid"] || !ev.Matched["manageIND"] {
		t.Fatalf("unexpected match map: %v", ev.Matched)
	}
}

// TestMineEmittedReverifiedByChecker is the property test of the
// acceptance criteria: every emitted constraint, re-checked from
// scratch by core.RCDPCtx on every evidence pair, is Complete for its
// own left-hand-side query — across Workers 1/8.
func TestMineEmittedReverifiedByChecker(t *testing.T) {
	for _, cfgMod := range []int{0, 3} {
		cfg := evidenceConfig()
		cfg.SupportInternational = cfgMod
		res, pairs := mineOver(t, cfg, 4, Options{})
		if len(res.Mined) == 0 {
			t.Fatalf("suppIntl=%d: nothing mined", cfgMod)
		}
		for _, workers := range []int{1, 8} {
			ck := &core.Checker{Workers: workers}
			for _, m := range res.Mined {
				for pi, p := range pairs {
					r, err := ck.RCDPCtx(context.Background(), m.Constraint.Q, p.D, p.Dm,
						cc.NewSet(m.Constraint))
					if err != nil {
						t.Fatalf("workers=%d pair %d %s: %v", workers, pi, m.Constraint.Name, err)
					}
					if r.Verdict != core.VerdictComplete {
						t.Fatalf("workers=%d pair %d: emitted %s re-verifies %v",
							workers, pi, m.Constraint.Name, r.Verdict)
					}
				}
			}
		}
	}
}

// TestMineDeterministic: identical evidence yields identical mined
// output (order and signatures).
func TestMineDeterministic(t *testing.T) {
	a, _ := mineOver(t, evidenceConfig(), 4, Options{})
	b, _ := mineOver(t, evidenceConfig(), 4, Options{})
	if len(a.Mined) != len(b.Mined) {
		t.Fatalf("non-deterministic emission count: %d vs %d", len(a.Mined), len(b.Mined))
	}
	for i := range a.Mined {
		if a.Mined[i].Signature != b.Mined[i].Signature ||
			a.Mined[i].Support != b.Mined[i].Support ||
			a.Mined[i].Confidence != b.Mined[i].Confidence {
			t.Fatalf("non-deterministic emission at %d: %+v vs %+v", i, a.Mined[i], b.Mined[i])
		}
	}
}

// TestMineTruncation: a tiny candidate budget stops the enumeration
// without error and reports it.
func TestMineTruncation(t *testing.T) {
	res, _ := mineOver(t, evidenceConfig(), 2, Options{MaxCandidates: 3})
	if !res.Stats.Truncated {
		t.Fatalf("expected truncation with MaxCandidates=3, stats %+v", res.Stats)
	}
	if res.Stats.Enumerated > 3 {
		t.Fatalf("enumerated %d candidates over a budget of 3", res.Stats.Enumerated)
	}
}

// TestMineClosureOracle: closure mode emits confidence survivors
// without completeness certification.
func TestMineClosureOracle(t *testing.T) {
	res, _ := mineOver(t, evidenceConfig(), 4, Options{Oracle: OracleClosure})
	if len(res.Mined) == 0 {
		t.Fatal("closure mode mined nothing")
	}
	for _, m := range res.Mined {
		if m.Validated {
			t.Fatalf("closure mode must not mark %s validated", m.Constraint.Name)
		}
	}
	// Closure mode is a superset of complete mode on the same evidence.
	strict, _ := mineOver(t, evidenceConfig(), 4, Options{})
	loose := sigs(res)
	for s := range sigs(strict) {
		if !loose[s] {
			t.Fatalf("complete-mode constraint %s missing from closure mode", s)
		}
	}
}

// TestMineEvidenceRoundTrip: format → parse → mine matches mining the
// original pairs.
func TestMineEvidenceRoundTrip(t *testing.T) {
	direct, pairs := mineOver(t, evidenceConfig(), 3, Options{})
	text, err := FormatEvidence(pairs)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseEvidence(text)
	if err != nil {
		t.Fatalf("parse formatted evidence: %v", err)
	}
	if len(parsed) != len(pairs) {
		t.Fatalf("round trip lost pairs: %d vs %d", len(parsed), len(pairs))
	}
	res, err := Mine(context.Background(), parsed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := sigs(direct), sigs(res)
	if len(a) != len(b) {
		t.Fatalf("round trip changed mining output: %v vs %v", a, b)
	}
	for s := range a {
		if !b[s] {
			t.Fatalf("round trip lost constraint %s", s)
		}
	}
}

// TestParseEvidenceErrors pins the parser's failure modes.
func TestParseEvidenceErrors(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"empty", ""},
		{"no pairs", "== schemas\nrel R(a)\n"},
		{"unknown section", "== schemas\nrel R(a)\n== wat\n"},
		{"facts before section", "R(1).\n"},
		{"db before pair", "== schemas\nrel R(a)\n== db\n"},
		{"bad schema", "== schemas\nnot a schema\n== pair\n"},
		{"bad fact", "== schemas\nrel R(a)\n== pair\n== db\nQ(1).\n"},
	} {
		if _, err := ParseEvidence(tc.src); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

// TestMineBuildsEachProjectionOnce pins that p(Dm) is memoized on the
// master instance, not per candidate constraint: one Mine call on
// BenchmarkMine's evidence at Workers 1 reads at most one p(Dm) miss
// per distinct (Dm instance, relation, columns). The keys are taken
// from the run's pdm_build trace events; afterwards every key the run
// built must be a hit, and the run's misses may not exceed their count.
func TestMineBuildsEachProjectionOnce(t *testing.T) {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 8
	cfg.InternationalCustomers = 3
	cfg.SaturateSupport = true
	cfg.UnregisteredDomestic = 2
	var pairs []Pair
	for _, s := range mdm.Evidence(cfg, 4) {
		pairs = append(pairs, Pair{D: s.D, Dm: s.Dm})
	}
	var trace bytes.Buffer
	prev := obs.SetTracer(obs.NewTracer(&trace))
	hits0, misses0 := obs.PDmHits.Value(), obs.PDmMisses.Value()
	_, err := Mine(context.Background(), pairs, Options{MaxCandidates: 256, Workers: 1})
	hits, misses := obs.PDmHits.Value()-hits0, obs.PDmMisses.Value()-misses0
	obs.SetTracer(prev)
	if err != nil {
		t.Fatal(err)
	}

	type projKey struct {
		rel  string
		cols string
	}
	built := make(map[projKey][]int)
	sc := bufio.NewScanner(&trace)
	for sc.Scan() {
		var ev struct {
			Ev   string `json:"ev"`
			Rel  string `json:"rel"`
			Cols []int  `json:"cols"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Ev == "pdm_build" {
			built[projKey{ev.Rel, fmt.Sprint(ev.Cols)}] = ev.Cols
		}
	}
	keys := 0
	seen := make(map[*relation.Instance]bool)
	for _, p := range pairs {
		for _, rel := range p.Dm.Relations() {
			in := p.Dm.Instance(rel)
			if seen[in] {
				continue
			}
			seen[in] = true
			for k, cols := range built {
				if k.rel != rel {
					continue
				}
				h0 := obs.PDmHits.Value()
				in.ProjectIDSet(cols)
				keys += int(obs.PDmHits.Value() - h0)
			}
		}
	}
	t.Logf("one Mine call: %d p(Dm) hits, %d misses over %d distinct keys", hits, misses, keys)
	if misses == 0 || misses > int64(keys) {
		t.Fatalf("%d p(Dm) misses over %d distinct (Dm instance, relation, columns) keys; want at most one each", misses, keys)
	}
}
