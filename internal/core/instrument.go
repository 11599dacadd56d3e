package core

import (
	"time"

	"repro/internal/obs"
)

// checkObs is the observability span of one governed check: the Ctx
// entry points open it on entry and close it with the verdict, wiring
// the check-level counters, the latency histogram and the
// check_start/check_done trace events. All per-row and per-valuation
// accounting stays in the batched engine instruments (see
// internal/obs); this type only touches atomics twice per check.
type checkObs struct {
	kind  string
	start time.Time
}

// startCheck opens the span: counts the check by kind, emits the
// check_start trace event and starts the latency clock.
func startCheck(kind string, workers int) checkObs {
	obs.Checks.Inc(kind)
	if obs.Tracing() {
		obs.Emit("check_start", map[string]any{"check": kind, "workers": workers})
	}
	return checkObs{kind: kind, start: time.Now()}
}

// done closes the span with the final verdict label ("complete",
// "incomplete", "unknown", "yes", "no" or "error"), the exhaustion
// reason (ReasonNone when decisive) and the check's consumption stats.
func (c checkObs) done(verdict string, reason Reason, stats BudgetStats) {
	elapsed := time.Since(c.start)
	obs.CheckSeconds.Observe(elapsed.Seconds())
	obs.Verdicts.Inc(verdict)
	if reason != ReasonNone {
		obs.Exhaustions.Inc(reason.String())
	}
	if tr := obs.CurrentTracer(); tr != nil {
		f := map[string]any{
			"check":      c.kind,
			"verdict":    verdict,
			"valuations": stats.Valuations,
			"join_rows":  stats.JoinRows,
			"tuples":     stats.Tuples,
		}
		if reason != ReasonNone {
			f["reason"] = reason.String()
		}
		if tr.Timings {
			f["elapsed_ns"] = elapsed.Nanoseconds()
		}
		tr.Emit("check_done", f)
	}
}

// noteDisjunct records one disjunct search's work: the global
// valuation, answered-head cut and nogood jump counters plus a
// disjunct_done trace event. witness reports whether the disjunct
// produced the counterexample (always false on governed aborts, whose
// outcome the enclosing check_done event carries).
func noteDisjunct(disjunct, valuations, headCuts, nogoodJumps int, witness bool) {
	obs.Valuations.Add(int64(valuations))
	obs.HeadCuts.Add(int64(headCuts))
	obs.NogoodJumps.Add(int64(nogoodJumps))
	if obs.Tracing() {
		obs.Emit("disjunct_done", map[string]any{
			"disjunct": disjunct, "valuations": valuations, "head_cuts": headCuts,
			"nogood_jumps": nogoodJumps, "witness": witness,
		})
	}
}
