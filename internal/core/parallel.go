package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// Keyed-task search.
//
// Every search of the package that looks for a first witness — the RCDP
// disjunct searches, the RCQP E3/E4 search, the bounded subset
// enumeration and the certificate search's candidate checks — runs as
// a list of keyed tasks on a workerPool. Determinism does not come from
// scheduling (there is none to rely on) but from *keys*: each task is
// tagged with a packed (disjunct, branch-index) key, a raceCtl resolves
// competing witness claims to the lexicographically smallest key, and a
// task whose key is already beaten abandons at its next search node.
// Within one task the recursion is sequential, so the claim it makes is
// the DFS-first witness of that task, and the winning claim is the
// DFS-first witness of the whole search: lowest disjunct, then lowest
// top-level branch, then depth-first order. A nil pool runs the tasks
// in key order on the calling goroutine, where each claim cancels every
// later key: that is the sequential search, with the same witness and
// the same work counts, so there is no separate sequential loop. The
// enumerations that visit every valuation — degree counting, the E3/E4
// witness construction and the certificate fragment pool — run the
// same tasks on a nil pool (valuationSearch.inOrder), so branchTasks is
// the one driver of the valuation search.
//
// State discipline (see also the valuationSearch field comments):
//
//	shared read-only:  Universe, Tableau, the compiled search (slot
//	                   order, candidate ids, inequalities, IND pruner
//	                   with its p(Dm) key sets, head, slot templates),
//	                   D/Dm (warmed), schemas, answer key sets
//	shared mutable:    raceCtl (atomics + mutex), budgetCtl (atomics),
//	                   the RCDP witness-checker pool (mutex)
//	per-task:          the slot array, the IND and head probe scratch,
//	                   the freshUsed symmetry counter, the
//	                   answered-head cut tally, RCQP's μ(T) fragment
//	                   scratch, the RCDP witness checker (with its μ(T)
//	                   rows) taken from the pool
var (
	// errAbandoned aborts a branch whose key can no longer win.
	errAbandoned = errors.New("core: branch abandoned")
	// errBudgetStop aborts a branch after the shared budget ran out.
	errBudgetStop = errors.New("core: budget stop")
)

// noKey is the raceCtl key meaning "no claim yet"; every real key is
// smaller.
const noKey = int64(math.MaxInt64)

// packKey packs a (disjunct, branch) pair into an order-preserving
// int64: comparing keys compares (disjunct, branch) lexicographically.
func packKey(disjunct, branch int) int64 {
	return int64(disjunct)<<32 | int64(branch)
}

// budgetKey is the key a disjunct's budget exhaustion claims: it beats
// every later disjunct but loses to every witness inside its own
// disjunct. In key order (a nil pool) the exhaustion ends the search
// on the spot; on a pool it surfaces only if no earlier task claims a
// witness, so for decisive budgets both give the same verdict.
func budgetKey(disjunct int) int64 {
	return int64(disjunct)<<32 | int64(math.MaxUint32)
}

// keyDisjunct recovers the disjunct index from a packed key.
func keyDisjunct(key int64) int { return int(key >> 32) }

// raceCtl arbitrates a deterministic race: many keyed workers propose
// outcomes, the smallest key wins, and anything tagged with a larger
// key may be cancelled early. A fatal error aborts the whole race.
type raceCtl struct {
	bestKey atomic.Int64 // smallest claimed key so far; noKey when none
	fatal   atomic.Bool

	mu  sync.Mutex
	val any
	err error
}

func newRaceCtl() *raceCtl {
	c := &raceCtl{}
	c.bestKey.Store(noKey)
	return c
}

// cancelled reports whether work tagged with key can no longer affect
// the outcome. It is a single atomic load on the hot path.
func (c *raceCtl) cancelled(key int64) bool {
	return c.fatal.Load() || key > c.bestKey.Load()
}

// claim proposes an outcome for key; the smallest key wins. val may be
// nil (a budget-exhaustion claim).
func (c *raceCtl) claim(key int64, val any) {
	c.mu.Lock()
	if key < c.bestKey.Load() {
		c.bestKey.Store(key)
		c.val = val
	}
	c.mu.Unlock()
}

// fail aborts the race with an error; the first error wins.
func (c *raceCtl) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.fatal.Store(true)
}

// result returns the race outcome: the winning claim and its key, or
// noKey when nothing was claimed, or the fatal error.
func (c *raceCtl) result() (any, int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, noKey, c.err
	}
	return c.val, c.bestKey.Load(), nil
}

// budgetCtl is the shared valuation budget of one disjunct's search:
// every task that completes a candidate valuation charges the
// same atomic counter, so the MaxValuations cap bounds the disjunct's
// total work no matter how it is scheduled. It also sums the
// answered-head cuts and the nogood jumps of the disjunct's walks, once
// per walk.
type budgetCtl struct {
	cap     int64 // 0 = unlimited
	visited atomic.Int64
	cuts    atomic.Int64
	jumps   atomic.Int64
}

func newBudgetCtl(cap int) *budgetCtl { return &budgetCtl{cap: int64(cap)} }

// visit charges one candidate valuation and reports whether the budget
// still holds.
func (bc *budgetCtl) visit() bool {
	n := bc.visited.Add(1)
	return bc.cap <= 0 || n <= bc.cap
}

// exhausted reports whether the budget has already run out.
func (bc *budgetCtl) exhausted() bool {
	return bc.cap > 0 && bc.visited.Load() > bc.cap
}

// count returns the number of candidate valuations charged so far.
func (bc *budgetCtl) count() int { return int(bc.visited.Load()) }

// headCuts returns the number of answered-head cuts of the disjunct's
// finished walks.
func (bc *budgetCtl) headCuts() int { return int(bc.cuts.Load()) }

// nogoodJumps returns the number of nogoods that skipped valuations in
// the disjunct's finished walks.
func (bc *budgetCtl) nogoodJumps() int { return int(bc.jumps.Load()) }

// inspected is count without the charges refused for exceeding the
// cap: the complete valuations actually handed to the callback or
// rejected by its inequality test.
func (bc *budgetCtl) inspected() int {
	n := bc.count()
	if bc.cap > 0 && int64(n) > bc.cap {
		return int(bc.cap)
	}
	return n
}

// parallelFn is the complete-valuation callback of a keyed-task
// search. It may run concurrently on worker goroutines, so it must only
// read shared state that is warmed/immutable, plus the calling task's
// own state (w). The slot array it receives is task-owned and changes
// after the call returns, so anything kept must be derived from it
// (valuationSearch.binding, headTuple). A non-nil claim ends the task.
type parallelFn func(w *searchWorker, slots []int32) (claim any, err error)

// branchTasks builds the pool tasks of the search, tagged (disjunct,
// branchIndex): one per top-level candidate branch, or — on a nil pool,
// which runs them in order on one goroutine anyway, and for a
// variable-free tableau — one root task walking the whole search. Every
// task runs the one recursion (searchWorker.rec: candidate order,
// pruning, fresh-value symmetry) below its first binding, with the
// budget/stop bookkeeping on the shared controllers. A task skips
// itself when its key is already beaten or the budget is spent. Must be
// called on the coordinating goroutine before the tasks run.
//
// answers, when non-nil, is Q(D), and every walk cuts the subtrees
// whose head it answers (searchWorker.answers). A variable-free head is
// tested here, once: when Q(D) answers it there are no tasks.
func (s *valuationSearch) branchTasks(pool *workerPool, ctl *raceCtl, bud *budgetCtl, disjunct int, answers *relation.IDTupleSet, fn parallelFn) []func() {
	if answers != nil && s.headAt < 0 && answers.Has(s.headIDs(nil, nil)) {
		bud.cuts.Add(1)
		return nil
	}
	launch := func(key int64, walk func(w *searchWorker) error) func() {
		return func() {
			if ctl.cancelled(key) || bud.exhausted() {
				return
			}
			w := s.newWorker()
			w.fn, w.budget, w.ctl, w.key, w.answers = fn, bud, ctl, key, answers
			// A closure: w.wc is taken and w.cuts and w.jumps tallied
			// during the walk, after this defer.
			defer func() {
				w.wc.release()
				if w.cuts > 0 {
					bud.cuts.Add(int64(w.cuts))
				}
				if w.jumps > 0 {
					bud.jumps.Add(int64(w.jumps))
				}
			}()
			switch err := walk(w); err {
			case nil, errStop, errAbandoned, errBudgetStop:
				// Branch outcome (if any) is recorded in ctl.
			default:
				ctl.fail(err)
			}
		}
	}

	if pool == nil || len(s.order) == 0 {
		return []func(){launch(packKey(disjunct, 0), func(w *searchWorker) error { return w.rec(0, 0) })}
	}
	c := &s.cands[0]
	first := append(c.base[:len(c.base):len(c.base)], s.freshCandidates(c, 0)...)
	tasks := make([]func(), len(first))
	for bi, id := range first {
		id := id
		tasks[bi] = launch(packKey(disjunct, bi), func(w *searchWorker) error { return w.descend(0, id, 0) })
	}
	return tasks
}

// inOrder walks the whole search on the calling goroutine: branchTasks
// on a nil pool, one root task under its own race and budget
// controllers (budget 0 = unlimited). It returns fn's claim, which ended
// the walk (nil when fn never claimed); the budget controller, for the
// counts; and ErrBudgetExceeded when the budget ran out, or the error
// that stopped the walk.
func (s *valuationSearch) inOrder(budget int, fn parallelFn) (any, *budgetCtl, error) {
	ctl, bud := newRaceCtl(), newBudgetCtl(budget)
	for _, task := range s.branchTasks(nil, ctl, bud, 0, nil, fn) {
		task()
	}
	claim, key, err := ctl.result()
	if err == nil && key != noKey && claim == nil {
		err = ErrBudgetExceeded
	}
	return claim, bud, err
}
