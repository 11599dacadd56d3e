package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// obsFixture builds a fresh Example 3.1 instance (query, database,
// master, constraints) so every run starts with cold compiled-query and
// p(Dm) caches — the premise of the trace-reproducibility test.
func obsFixture() (d, dm *relation.Database, vset *cc.Set) {
	vset = cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 3))
	dm = emptyMaster()
	d = relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "s", "c1")
	return d, dm, vset
}

// traceRCDP runs one sequential governed check under a fresh tracer and
// returns the JSONL trace.
func traceRCDP(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	prev := obs.SetTracer(obs.NewTracer(&b))
	defer obs.SetTracer(prev)
	d, dm, vset := obsFixture()
	ck := Checker{Workers: 1}
	r, err := ck.RCDPCtx(context.Background(), q2(), d, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictIncomplete {
		t.Fatalf("verdict = %v, want incomplete", r.Verdict)
	}
	return b.String()
}

// TestTraceDeterministic checks the tracer contract the CLIs rely on:
// with Workers=1, Timings off and cold caches, two identical checks
// produce byte-identical JSONL streams with well-formed events.
func TestTraceDeterministic(t *testing.T) {
	first := traceRCDP(t)
	second := traceRCDP(t)
	if first != second {
		t.Fatalf("sequential traces differ:\n--- first\n%s--- second\n%s", first, second)
	}

	lines := strings.Split(strings.TrimRight(first, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace too short:\n%s", first)
	}
	var seq int64
	events := make([]string, 0, len(lines))
	for _, l := range lines {
		var ev struct {
			Seq int64  `json:"seq"`
			Ev  string `json:"ev"`
		}
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", l, err)
		}
		if ev.Seq != seq+1 {
			t.Fatalf("seq %d after %d in %q", ev.Seq, seq, l)
		}
		seq = ev.Seq
		events = append(events, ev.Ev)
	}
	// Constraint construction may compile tableaux before the check
	// opens, so check_start need not be first — but the check must close
	// the stream and the lifecycle events must appear in order.
	if events[len(events)-1] != "check_done" {
		t.Fatalf("trace does not end with check_done: %v", events)
	}
	joined := strings.Join(events, " ")
	for _, want := range []string{"check_start", "tableau_build", "disjunct_done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %s event: %v", want, events)
		}
	}
	// Timings off: no wall-clock fields may leak into the stream.
	if strings.Contains(first, "elapsed_ns") {
		t.Fatalf("elapsed_ns present with Timings off:\n%s", first)
	}
}

// TestCheckDoneCarriesStats checks the check_done event reports the
// check's own BudgetStats (per-check valuation count, not the global
// counter).
func TestCheckDoneCarriesStats(t *testing.T) {
	trace := traceRCDP(t)
	var done struct {
		Check      string `json:"check"`
		Verdict    string `json:"verdict"`
		Valuations int    `json:"valuations"`
	}
	for _, l := range strings.Split(strings.TrimRight(trace, "\n"), "\n") {
		if strings.Contains(l, `"ev":"check_done"`) {
			if err := json.Unmarshal([]byte(l), &done); err != nil {
				t.Fatal(err)
			}
		}
	}
	if done.Check != "rcdp" || done.Verdict != "incomplete" {
		t.Fatalf("check_done = %+v", done)
	}
	if done.Valuations <= 0 {
		t.Fatalf("check_done has no valuation count: %+v", done)
	}
}

// TestCheckMetrics checks one governed check moves the engine counters:
// the check/verdict vectors, the latency histogram and the valuation
// counter.
func TestCheckMetrics(t *testing.T) {
	checksBefore := obs.Checks.Value("rcdp")
	verdictsBefore := obs.Verdicts.Value("incomplete")
	secondsBefore := obs.CheckSeconds.Count()
	valsBefore := obs.Valuations.Value()

	d, dm, vset := obsFixture()
	ck := Checker{Workers: 1}
	if _, err := ck.RCDPCtx(context.Background(), q2(), d, dm, vset); err != nil {
		t.Fatal(err)
	}

	if got := obs.Checks.Value("rcdp"); got != checksBefore+1 {
		t.Errorf("Checks[rcdp] = %d, want %d", got, checksBefore+1)
	}
	if got := obs.Verdicts.Value("incomplete"); got != verdictsBefore+1 {
		t.Errorf("Verdicts[incomplete] = %d, want %d", got, verdictsBefore+1)
	}
	if got := obs.CheckSeconds.Count(); got != secondsBefore+1 {
		t.Errorf("CheckSeconds count = %d, want %d", got, secondsBefore+1)
	}
	if got := obs.Valuations.Value(); got <= valsBefore {
		t.Errorf("Valuations did not advance: %d -> %d", valsBefore, got)
	}
}

// TestExhaustionMetrics checks a budget-stopped check lands in the
// unknown verdict and exhaustion counters.
func TestExhaustionMetrics(t *testing.T) {
	unknownBefore := obs.Verdicts.Value("unknown")
	reasonBefore := obs.Exhaustions.Value("join-rows")

	d, dm, vset := obsFixture()
	ck := Checker{Workers: 1, Budget: Budget{MaxJoinRows: 1}}
	r, err := ck.RCDPCtx(context.Background(), q2(), d, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != VerdictUnknown || r.Reason != ReasonJoinRows {
		t.Fatalf("verdict %v reason %v, want unknown/join-rows", r.Verdict, r.Reason)
	}
	if got := obs.Verdicts.Value("unknown"); got != unknownBefore+1 {
		t.Errorf("Verdicts[unknown] = %d, want %d", got, unknownBefore+1)
	}
	if got := obs.Exhaustions.Value("join-rows"); got != reasonBefore+1 {
		t.Errorf("Exhaustions[join-rows] = %d, want %d", got, reasonBefore+1)
	}
	if obs.GateTrips.Value("join-rows") == 0 {
		t.Error("GateTrips[join-rows] never incremented")
	}
}

// TestRejectedCheckObserved checks a check refused by the Theorem
// 3.1/4.1 language guard is still a check: RCDP and RCQP alike count it
// under its kind and under verdicts{error}, and close its trace span
// with an error check_done event.
func TestRejectedCheckObserved(t *testing.T) {
	d := relation.NewDatabase(suptSchema())
	dm := emptyMaster()
	fpq := qlang.FromFP(datalogTC())
	schemas := map[string]*relation.Schema{"Supt": suptSchema()}
	runs := map[string]func() error{
		"rcdp": func() error {
			_, err := (&Checker{Workers: 1}).RCDPCtx(context.Background(), fpq, d, dm, cc.NewSet())
			return err
		},
		"rcqp": func() error {
			_, err := (&QPChecker{Checker: Checker{Workers: 1}}).RCQPCtx(context.Background(), fpq, dm, cc.NewSet(), schemas)
			return err
		},
	}
	for kind, run := range runs {
		checksBefore := obs.Checks.Value(kind)
		errorsBefore := obs.Verdicts.Value("error")
		var b strings.Builder
		prev := obs.SetTracer(obs.NewTracer(&b))
		err := run()
		obs.SetTracer(prev)
		if err == nil {
			t.Fatalf("%s: FP query accepted", kind)
		}
		if got := obs.Checks.Value(kind); got != checksBefore+1 {
			t.Errorf("%s: Checks = %d, want %d", kind, got, checksBefore+1)
		}
		if got := obs.Verdicts.Value("error"); got != errorsBefore+1 {
			t.Errorf("%s: Verdicts[error] = %d, want %d", kind, got, errorsBefore+1)
		}
		found := false
		for _, l := range strings.SplitAfter(b.String(), "\n") {
			if l == "" {
				continue
			}
			var ev struct{ Ev, Check, Verdict string }
			if err := json.Unmarshal([]byte(l), &ev); err != nil {
				t.Fatalf("%s: bad JSONL line %q: %v", kind, l, err)
			}
			found = found || (ev.Ev == "check_done" && ev.Check == kind && ev.Verdict == "error")
		}
		if !found {
			t.Errorf("%s: no error check_done event in trace:\n%s", kind, b.String())
		}
	}
}

// TestMetricsDisabled checks SetEnabled(false) freezes the counters —
// the ablation baseline BenchmarkObsOverhead depends on.
func TestMetricsDisabled(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(false))
	before := obs.Checks.Value("rcdp")
	d, dm, vset := obsFixture()
	ck := Checker{Workers: 1}
	if _, err := ck.RCDPCtx(context.Background(), q2(), d, dm, vset); err != nil {
		t.Fatal(err)
	}
	if got := obs.Checks.Value("rcdp"); got != before {
		t.Errorf("disabled check still counted: %d -> %d", before, got)
	}
}

// TestHeadCutObserved checks the answered-head cut is visible where an
// operator looks: the disjunct_done event carries the disjunct's cuts
// and the relcomp_core_head_cuts_total counter moves by the same
// amount. Q(D) answers x = a, so that branch is cut at its head; x = b
// reaches its leaves, where the denial rejects every extension.
func TestHeadCutObserved(t *testing.T) {
	r, f := microSchema()
	d := relation.NewDatabase(r, f)
	d.MustAdd("R", "a", "b")
	dm := relation.NewDatabase(relation.NewSchema("M", relation.Attr("x")))
	dm.MustAdd("M", "a")
	dm.MustAdd("M", "b")
	vset := cc.NewSet(cc.NewIND("i0", "R", []int{0}, 2, cc.Proj("M", 0)),
		(&cc.Denial{Name: "noB", Atoms: []query.RelAtom{query.Atom("R", v("x"), v("y"))},
			Conds: []query.EqAtom{query.Eq(v("x"), c("b"))}}).ToCC())
	q1 := microQueries()[0]

	var b strings.Builder
	prev := obs.SetTracer(obs.NewTracer(&b))
	defer obs.SetTracer(prev)
	before := obs.HeadCuts.Value()
	res, err := (&Checker{Workers: 1}).RCDPCtx(context.Background(), q1, d, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictComplete || res.Stats.Valuations == 0 {
		t.Fatalf("want complete with leaves reached, got %+v", res)
	}
	var done struct {
		HeadCuts   int `json:"head_cuts"`
		Valuations int `json:"valuations"`
	}
	for _, l := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.Contains(l, `"ev":"disjunct_done"`) {
			if err := json.Unmarshal([]byte(l), &done); err != nil {
				t.Fatal(err)
			}
		}
	}
	cuts := obs.HeadCuts.Value() - before
	if done.HeadCuts != 1 || cuts != 1 || done.Valuations != res.Stats.Valuations {
		t.Fatalf("disjunct_done %+v, counter moved %d, valuations %d; want 1 cut", done, cuts, res.Stats.Valuations)
	}
}

// TestNogoodJumpObserved checks the nogoods are visible the way
// answered-head cuts are: on completeFixture the at-most-n rejection of
// the first candidate customer reads it only through inequalities, so
// its nogood keeps only the customers e0 already supports (all cut at
// their head) and the check ends after one valuation. The
// disjunct_done event's nogood_jumps and the
// relcomp_core_nogood_jumps_total counter both report that one jump.
func TestNogoodJumpObserved(t *testing.T) {
	q, d, dm, vset := completeFixture(5)
	var b strings.Builder
	prev := obs.SetTracer(obs.NewTracer(&b))
	defer obs.SetTracer(prev)
	before := obs.NogoodJumps.Value()
	res, err := (&Checker{Workers: 1}).RCDPCtx(context.Background(), q, d, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	var done struct {
		NogoodJumps int `json:"nogood_jumps"`
		Valuations  int `json:"valuations"`
	}
	for _, l := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.Contains(l, `"ev":"disjunct_done"`) {
			if err := json.Unmarshal([]byte(l), &done); err != nil {
				t.Fatal(err)
			}
		}
	}
	jumps := obs.NogoodJumps.Value() - before
	if res.Verdict != VerdictComplete || res.Stats.Valuations != 1 || done.Valuations != 1 || done.NogoodJumps != 1 || jumps != 1 {
		t.Fatalf("got %v after %d valuations, disjunct_done %+v, counter moved %d; want complete, 1 valuation, 1 jump",
			res.Verdict, res.Stats.Valuations, done, jumps)
	}
}
