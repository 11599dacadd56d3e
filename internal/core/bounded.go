package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cc"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// This file provides bounded semi-decision procedures. They serve two
// roles: (a) the FO/FP rows of Tables I and II are undecidable
// (Theorems 3.1 and 4.1), so bounded exploration is the best any
// implementation can do — "incomplete" answers are sound and carry a
// witness, while "complete" only holds up to the explored bound; and
// (b) on the decidable fragments they double as brute-force oracles
// against which the exact deciders are property-tested, because for
// monotone languages Proposition 3.3 bounds counterexamples by
// |T_Q| tuples over Adom, making the bounded search exact once the
// bound covers the tableau size and enough fresh values are in the
// pool.

// BoundedOpts configures the bounded searches.
type BoundedOpts struct {
	// MaxAdd bounds how many tuples an extension may add.
	MaxAdd int
	// FreshValues is the number of fresh values added to the value
	// pool beyond the constants of the problem.
	FreshValues int
	// MaxPool caps the candidate tuple pool; the search fails with an
	// error when the schema/value combination exceeds it.
	MaxPool int
	// Workers sizes the worker pool of BoundedRCDPCtx's subset
	// enumeration with the same convention as Checker.Workers: 0 uses
	// GOMAXPROCS, 1 runs the first-tuple tasks in order on the calling
	// goroutine. The witness is the same either way (the tasks race on
	// a raceCtl, the smallest first tuple wins); with more than one
	// worker Stats.Valuations also counts the speculative work of tasks
	// that lost.
	Workers int
	// Budget bounds the resources of a governed search (see the Budget
	// type). MaxValuations caps the number of candidate extensions
	// (BoundedRCDPCtx) or candidate databases (BoundedRCQPCtx) explored.
	Budget Budget
}

func (o BoundedOpts) withDefaults() BoundedOpts {
	if o.MaxAdd == 0 {
		o.MaxAdd = 2
	}
	if o.FreshValues == 0 {
		o.FreshValues = 2
	}
	if o.MaxPool == 0 {
		o.MaxPool = 200000
	}
	return o
}

// BoundedRCDPResult is the outcome of a bounded completeness check.
type BoundedRCDPResult struct {
	// Verdict is the three-valued governed outcome. VerdictComplete
	// only certifies completeness up to MaxAdd; VerdictIncomplete (a
	// partially closed extension changing Q(D) was found) is sound
	// unconditionally; VerdictUnknown means governance stopped the
	// search (see Reason).
	Verdict Verdict
	// Reason names the exhausted dimension on VerdictUnknown.
	Reason Reason
	// Stats reports resource consumption (governed runs only count
	// JoinRows/Tuples; Valuations is the number of candidate extensions
	// checked).
	Stats BudgetStats
	// Extension and NewTuple witness incompleteness.
	Extension *relation.Database
	NewTuple  relation.Tuple
	// MaxAdd echoes the bound: a VerdictComplete result only certifies
	// completeness for extensions of at most this many pool tuples.
	MaxAdd int
}

// BoundedRCDPCtx searches for a partially closed extension of D by at
// most MaxAdd tuples (over the constants of the problem plus
// FreshValues fresh values) that changes the answer to Q. It accepts
// every query and constraint language, including FO and FP. The search
// stops promptly when ctx is cancelled or a dimension of opts.Budget
// runs out, returning a VerdictUnknown result (nil error) carrying the
// Reason and the resources consumed.
func BoundedRCDPCtx(ctx context.Context, q qlang.Query, d, dm *relation.Database, v *cc.Set, opts BoundedOpts) (*BoundedRCDPResult, error) {
	o := opts.withDefaults()
	co := startCheck("bounded-rcdp", o.Workers)
	gv := newGovernor(ctx, o.Budget)
	defer gv.close()
	res, err := boundedRCDPGov(q, d, dm, v, o, gv.gateOf())
	if err != nil {
		if r := reasonOf(err); r != ReasonNone {
			out := &BoundedRCDPResult{Verdict: VerdictUnknown, Reason: r, Stats: gv.stats(0), MaxAdd: o.MaxAdd}
			co.done("unknown", r, out.Stats)
			return out, nil
		}
		co.done("error", ReasonNone, gv.stats(0))
		return nil, err
	}
	res.Stats = gv.stats(res.Stats.Valuations)
	co.done(res.Verdict.String(), ReasonNone, res.Stats)
	return res, nil
}

// boundedRCDPGov is the engine behind BoundedRCDPCtx and the inner
// checks of BoundedRCQPCtx; a nil gate is the uninstrumented path. The
// explored-candidate cap comes from o.Budget.MaxValuations (0 =
// unlimited). o must already have defaults applied.
func boundedRCDPGov(q qlang.Query, d, dm *relation.Database, v *cc.Set, o BoundedOpts, gate *query.Gate) (*BoundedRCDPResult, error) {
	if ok, err := v.SatisfiedGate(d, dm, gate); err != nil {
		return nil, err
	} else if !ok {
		return nil, errNotPartiallyClosed
	}
	base, err := q.EvalGate(d, gate)
	if err != nil {
		return nil, err
	}
	dict := relation.Shared()
	baseSet := relation.NewIDTupleSet(q.Arity(), len(base))
	var ids []int32
	for _, t := range base {
		ids = ids[:0]
		for _, val := range t {
			ids = append(ids, dict.Intern(val))
		}
		baseSet.Add(ids)
	}

	pool, err := tuplePool(d, dm, q, v, o)
	if err != nil {
		return nil, err
	}
	// Enumerate subsets of the pool of size 1..MaxAdd as one task per
	// first tuple: task i explores exactly the subsets whose smallest
	// pool index is i, which cuts the pre-order of the subset search
	// into index-ordered segments, so the smallest claiming task's
	// DFS-first counterexample is the pre-order-first one. delta carries
	// just the added tuples, so the partial-closure recheck of each
	// candidate can run differentially against the verified base (see
	// boundedCounterexample). The explored-candidate cap is shared and
	// claims the past-every-task key len(pool): in key order (a nil
	// pool) it ends the search on the spot, on a pool any witness of a
	// task that got there first beats it.
	wp := newWorkerPool(o.Workers)
	wp.warm(d, dm)
	ctl := newRaceCtl()
	bud := newBudgetCtl(o.Budget.MaxValuations)
	deltaOK := v.AllMonotone()
	tasks := make([]func(), 0, len(pool))
	for bi := range pool {
		bi := bi
		tasks = append(tasks, func() {
			key := int64(bi)
			if ctl.cancelled(key) || bud.exhausted() {
				return
			}
			var rec func(start int, cur, delta *relation.Database, added int) error
			rec = func(start int, cur, delta *relation.Database, added int) error {
				if added > 0 {
					if ctl.cancelled(key) {
						return errAbandoned
					}
					if err := gate.Poll(); err != nil {
						return err
					}
					if !bud.visit() {
						ctl.claim(int64(len(pool)), nil)
						return errBudgetStop
					}
					r, err := boundedCounterexample(q, d, dm, v, baseSet, len(base), cur, delta, deltaOK, o.MaxAdd, gate)
					if err != nil {
						return err
					}
					if r != nil {
						ctl.claim(key, r)
						return errStop
					}
				}
				if added == o.MaxAdd {
					return nil
				}
				// At the root the task extends by its own first tuple only.
				for i := start; i < len(pool) && (added > 0 || i == bi); i++ {
					if d.Contains(pool[i].rel, pool[i].tup) {
						continue
					}
					next := cur.Clone()
					if err := next.Add(pool[i].rel, pool[i].tup); err != nil {
						continue // finite-domain violation: not a legal tuple
					}
					nd := delta.Clone()
					if err := nd.Add(pool[i].rel, pool[i].tup); err != nil {
						continue
					}
					if err := gate.ChargeTuples(1); err != nil {
						return err
					}
					if err := rec(i+1, next, nd, added+1); err != nil {
						return err
					}
				}
				return nil
			}
			switch err := rec(bi, d, emptyDatabase(schemasOf(d)), 0); err {
			case nil, errStop, errAbandoned, errBudgetStop:
			default:
				ctl.fail(err)
			}
		})
	}
	wp.run(tasks)
	val, key, err := ctl.result()
	if err != nil {
		return nil, err
	}
	if val != nil {
		r := val.(*BoundedRCDPResult)
		r.Stats.Valuations = bud.count()
		return r, nil
	}
	if key != noKey {
		// A budget claim with no witness beating it.
		return nil, ErrBudgetExceeded
	}
	return &BoundedRCDPResult{Verdict: VerdictComplete, MaxAdd: o.MaxAdd, Stats: BudgetStats{Valuations: bud.count()}}, nil
}

// boundedCounterexample checks one candidate extension: is cur partially
// closed and does it change Q's answer? cur = base ∪ delta; when deltaOK
// (all constraints monotone) the partial-closure recheck runs
// differentially via SatisfiedDelta against the entry-verified base
// instead of re-evaluating every constraint body over cur from scratch.
// It returns a result without the explored count (the caller owns the
// accounting) and reads only shared warmed/immutable inputs plus the
// gate's atomics, so parallel branches may call it directly.
func boundedCounterexample(q qlang.Query, base, dm *relation.Database, v *cc.Set,
	baseSet *relation.IDTupleSet, baseLen int, cur, delta *relation.Database, deltaOK bool, maxAdd int, gate *query.Gate) (*BoundedRCDPResult, error) {
	var ok bool
	var err error
	if deltaOK && delta != nil {
		ok, err = v.SatisfiedDeltaGate(base, delta, dm, gate)
	} else {
		ok, err = v.SatisfiedGate(cur, dm, gate)
	}
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	ans, err := q.EvalGate(cur, gate)
	if err != nil {
		return nil, err
	}
	var ids []int32
	for _, t := range ans {
		var known bool
		if ids, known = tupleIDs(ids[:0], t); !known || !baseSet.Has(ids) {
			ext := emptyDatabase(schemasOf(cur))
			ext.UnionInto(cur)
			return &BoundedRCDPResult{Verdict: VerdictIncomplete, Extension: ext, NewTuple: t, MaxAdd: maxAdd}, nil
		}
	}
	if len(ans) != baseLen {
		// An answer disappeared: impossible for monotone languages,
		// possible for FO/FP.
		ext := emptyDatabase(schemasOf(cur))
		ext.UnionInto(cur)
		return &BoundedRCDPResult{Verdict: VerdictIncomplete, Extension: ext, MaxAdd: maxAdd}, nil
	}
	return nil, nil
}

// tupleIDs appends the ids of t's values to dst. known is false when
// the dictionary lacks one of them: such a tuple is in no base answer.
func tupleIDs(dst []int32, t relation.Tuple) (ids []int32, known bool) {
	dict := relation.Shared()
	for _, val := range t {
		id, ok := dict.ID(val)
		if !ok {
			return dst, false
		}
		dst = append(dst, id)
	}
	return dst, true
}

type poolTuple struct {
	rel string
	tup relation.Tuple
}

// tuplePool enumerates all candidate tuples over the value pool for
// every relation of D's schema.
func tuplePool(d, dm *relation.Database, q qlang.Query, v *cc.Set, o BoundedOpts) ([]poolTuple, error) {
	u := NewUniverse(d, dm, q, v, o.FreshValues)
	vals := append(append([]relation.Value{}, u.Consts...), u.Fresh...)
	if len(vals) == 0 {
		vals = u.Fresh
	}
	var pool []poolTuple
	for _, rel := range d.Relations() {
		s := d.Schema(rel)
		// Per-column candidate values (finite domains stay exact).
		cols := make([][]relation.Value, s.Arity())
		total := 1
		for i, a := range s.Attrs {
			if a.Domain.Kind == relation.Finite {
				cols[i] = a.Domain.Values
			} else {
				cols[i] = vals
			}
			total *= len(cols[i])
			if total > o.MaxPool {
				return nil, fmt.Errorf("core: bounded search pool for %s exceeds %d tuples; reduce FreshValues or schema width", rel, o.MaxPool)
			}
		}
		tup := make(relation.Tuple, s.Arity())
		var gen func(i int)
		gen = func(i int) {
			if i == s.Arity() {
				pool = append(pool, poolTuple{rel: rel, tup: tup.Clone()})
				return
			}
			for _, val := range cols[i] {
				tup[i] = val
				gen(i + 1)
			}
		}
		gen(0)
	}
	return pool, nil
}

// BoundedRCQPResult is the outcome of a bounded witness search for the
// relatively complete query problem.
type BoundedRCQPResult struct {
	// Verdict is the governed outcome. VerdictComplete reports that
	// Witness, a candidate database of at most MaxTuples pool tuples,
	// is partially closed and complete for Q up to extensions of MaxAdd
	// tuples: for monotone languages with the bounds covering the
	// tableau size this is a genuine witness; for FO/FP it is evidence
	// up to the bound. VerdictIncomplete means the space was exhausted
	// without a witness, VerdictUnknown that governance stopped the
	// search (see Reason).
	Verdict Verdict
	// Reason names the exhausted dimension on VerdictUnknown.
	Reason Reason
	// Stats reports resource consumption of governed runs; Valuations
	// is the number of candidate databases checked.
	Stats   BudgetStats
	Witness *relation.Database
}

// BoundedRCQPCtx searches for a database of at most maxTuples pool
// tuples that is partially closed with respect to (Dm, V) and complete
// for Q up to the BoundedRCDPCtx bound. schemas describes the database
// schema R. The inner per-candidate BoundedRCDPCtx searches share the
// check's single gate, so the global dimensions (deadline, rows,
// tuples) bound the whole search; the explored-candidate cap
// (Budget.MaxValuations) applies to the outer candidate-database
// enumeration, and an inner search that trips it merely marks that
// candidate unverifiable (skipped), matching RCQP's per-candidate
// valuation-budget semantics.
func BoundedRCQPCtx(ctx context.Context, q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema, maxTuples int, opts BoundedOpts) (*BoundedRCQPResult, error) {
	o := opts.withDefaults()
	co := startCheck("bounded-rcqp", o.Workers)
	gv := newGovernor(ctx, o.Budget)
	defer gv.close()
	res, err := boundedRCQPGov(q, dm, v, schemas, maxTuples, o, gv.gateOf())
	if err != nil {
		if r := reasonOf(err); r != ReasonNone {
			out := &BoundedRCQPResult{Verdict: VerdictUnknown, Reason: r, Stats: gv.stats(0)}
			co.done("unknown", r, out.Stats)
			return out, nil
		}
		co.done("error", ReasonNone, gv.stats(0))
		return nil, err
	}
	res.Stats = gv.stats(res.Stats.Valuations)
	co.done(res.Verdict.String(), ReasonNone, res.Stats)
	return res, nil
}

func boundedRCQPGov(q qlang.Query, dm *relation.Database, v *cc.Set, schemas map[string]*relation.Schema, maxTuples int, o BoundedOpts, gate *query.Gate) (*BoundedRCQPResult, error) {
	empty := emptyDatabase(schemas)
	pool, err := tuplePool(empty, dm, q, v, o)
	if err != nil {
		return nil, err
	}
	expCap := o.Budget.MaxValuations
	res := &BoundedRCQPResult{Verdict: VerdictIncomplete}
	var rec func(start int, cur *relation.Database, added int) (*BoundedRCQPResult, error)
	rec = func(start int, cur *relation.Database, added int) (*BoundedRCQPResult, error) {
		if err := gate.Poll(); err != nil {
			return nil, err
		}
		res.Stats.Valuations++
		if expCap > 0 && res.Stats.Valuations > expCap {
			return nil, ErrBudgetExceeded
		}
		if ok, err := v.SatisfiedGate(cur, dm, gate); err != nil {
			return nil, err
		} else if ok {
			r, err := boundedRCDPGov(q, cur, dm, v, o, gate)
			switch {
			case errors.Is(err, ErrBudgetExceeded):
				// The inner completeness check ran out of its candidate
				// budget: the candidate is unverifiable, skip it.
			case err != nil:
				return nil, err
			case r.Verdict != VerdictIncomplete:
				return &BoundedRCQPResult{Verdict: VerdictComplete, Witness: cur, Stats: res.Stats}, nil
			}
		}
		if added == maxTuples {
			return nil, nil
		}
		for i := start; i < len(pool); i++ {
			next := cur.Clone()
			if err := next.Add(pool[i].rel, pool[i].tup); err != nil {
				continue
			}
			if err := gate.ChargeTuples(1); err != nil {
				return nil, err
			}
			r, err := rec(i+1, next, added+1)
			if err != nil || r != nil {
				return r, err
			}
		}
		return nil, nil
	}
	r, err := rec(0, empty, 0)
	if err != nil {
		return nil, err
	}
	if r != nil {
		return r, nil
	}
	return res, nil
}
