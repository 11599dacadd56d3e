package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// workerPool bounds the number of goroutines a (possibly nested) family
// of parallel searches may occupy. It is deliberately not a classic
// fixed-worker executor: run drains its task list with the *calling*
// goroutine plus however many helper slots it can grab from the shared
// semaphore. Because the caller always participates, a task that itself
// calls run — RCQP candidate checks invoke RCDP, whose disjunct search
// fans out branches on the same pool — can never deadlock waiting for a
// slot: when the pool is saturated the nested work simply degrades to
// sequential execution on the goroutine that submitted it.
type workerPool struct {
	// sem holds one token per helper goroutine beyond the callers
	// themselves, so a pool built for n workers runs at most n
	// goroutines when a single top-level run is active.
	sem chan struct{}
}

// newWorkerPool sizes a pool for the given worker count (<=1 returns
// nil, the sentinel for purely sequential execution).
func newWorkerPool(workers int) *workerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		return nil
	}
	return &workerPool{sem: make(chan struct{}, workers-1)}
}

// run executes every task, pulling from the list in index order (lower
// indexes are higher priority — the deterministic-witness resolution
// prefers them, so starting them first minimizes wasted speculation).
// It returns when all tasks have finished. Safe for concurrent and
// nested use; a nil pool runs the tasks sequentially in order.
func (p *workerPool) run(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	if p == nil || len(tasks) == 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	if obs.Tracing() {
		obs.Emit("pool_run", map[string]any{"tasks": len(tasks)})
	}
	var next atomic.Int64
	work := func() {
		// Each participating goroutine — helper or caller — counts as one
		// busy worker while it drains tasks. With obs enabled it is timed
		// once per drain, and charges its time and task count in one
		// atomic add each when it returns.
		obs.PoolWorkers.Add(1)
		defer obs.PoolWorkers.Add(-1)
		timed := obs.Enabled()
		var start time.Time
		if timed {
			start = time.Now()
		}
		n := 0
		for {
			i := int(next.Add(1) - 1)
			if i >= len(tasks) {
				break
			}
			tasks[i]()
			n++
		}
		if timed {
			obs.PoolBusyNS.Add(time.Since(start).Nanoseconds())
			obs.PoolTasks.Add(int64(n))
		}
	}
	var wg sync.WaitGroup
spawn:
	// At most len(tasks)-1 helpers: the caller handles the rest.
	for k := 0; k < len(tasks)-1; k++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-p.sem; wg.Done() }()
				work()
			}()
		default:
			break spawn // saturated; caller picks up the slack
		}
	}
	work()
	wg.Wait()
}

// warm populates the lazy caches of the read-only databases the pool's
// tasks share (the per-instance tuple order of D and Dm), so that
// concurrent tasks only read them. Query/constraint-side lazy state
// (∃FO⁺ → UCQ expansion, IND shapes, datalog arities) is already forced
// by the entry work every decision procedure performs before it builds
// its tasks. A nil pool runs its tasks on one goroutine, so it warms
// nothing: materialising those caches would only grow the heap.
func (p *workerPool) warm(dbs ...*relation.Database) {
	if p == nil {
		return
	}
	for _, d := range dbs {
		d.Warm()
	}
}
