package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/textq"
)

// Catalog mutations and maintained verdicts.
//
// A catalog entry is a live completeness context, not a frozen
// snapshot: POST /v1/catalog/{name}/insert and /delete apply a batch of
// textq facts to the entry's resident database D (the default) or its
// master data Dm, extending the relation indexes and the p(Dm) memos
// of the touched instances instead of rebuilding them. Entries registered with watched
// queries maintain those queries' RCDP verdicts across mutations —
// reusing a cached verdict when the core invisibility gate
// (core.Delta.Gate) proves the batch cannot have changed it,
// and rerunning the check cold over the incrementally patched data
// otherwise. GET /v1/catalog/{name}/verdicts reads (and optionally
// long-polls) the maintained verdicts, so clients observe flips without
// re-posting checks.
//
// A mutation takes the entry's write lock only to apply its batch and
// to publish the result. The rechecks in between hold the read lock, so
// the entry's checks keep running beside them, and they run in
// parallel, up to the server's admission width (Config.Workers).

// watchedVerdict is the maintained state of one watched query.
type watchedVerdict struct {
	src    string
	q      qlang.Query
	prev   *core.RCDPResult // nil after a failed recheck: stale, rerun next mutation
	reused bool             // the last maintenance step reused prev instead of rerunning
}

// maxVerdictWaitMS bounds how long one verdicts long-poll may park.
const maxVerdictWaitMS = 60_000

// MutationRequest is the body of POST /v1/catalog/{name}/insert and
// /delete: a batch of textq facts against the entry's resident
// database ("db", the default) or its master data ("master").
type MutationRequest struct {
	Target string `json:"target,omitempty"`
	Facts  string `json:"facts"`
}

// MutationResponse reports one applied batch: the rows actually
// inserted and deleted (duplicates and absent deletes are no-ops), the
// reused-versus-rechecked split over the entry's watched verdicts, and
// the entry version the batch produced (what verdict long-polls pass
// back as ?after=).
type MutationResponse struct {
	RequestID string `json:"request_id"`
	Catalog   string `json:"catalog"`
	Op        string `json:"op"`
	Target    string `json:"target"`
	Inserted  int    `json:"inserted"`
	Deleted   int    `json:"deleted"`
	Reused    int    `json:"reused"`
	Rechecked int    `json:"rechecked"`
	Version   uint64 `json:"version"`
}

// WatchedVerdict is the wire form of one maintained verdict.
type WatchedVerdict struct {
	Query     string   `json:"query"`
	Verdict   string   `json:"verdict"`
	Reason    string   `json:"reason,omitempty"`
	Extension string   `json:"extension,omitempty"`
	NewTuple  []string `json:"new_tuple,omitempty"`
	Reused    bool     `json:"reused"`
}

// VerdictsResponse is the body of GET /v1/catalog/{name}/verdicts.
type VerdictsResponse struct {
	RequestID string           `json:"request_id"`
	Catalog   string           `json:"catalog"`
	Version   uint64           `json:"version"`
	Verdicts  []WatchedVerdict `json:"verdicts"`
}

// mutationOutcome is Mutate's summary of one applied batch.
type mutationOutcome struct {
	ins, del          int
	reused, rechecked int
	version           uint64
}

// Watch seeds maintained verdicts for queries against the entry's
// resident database. Queries already watched are kept as they are;
// like the exact check endpoints, non-monotone queries are refused
// (the maintained verdict would be undecidable). The first checks run
// like a mutation's rechecks: in parallel under the read side of e.mu,
// published under the write side. Nothing is watched unless every
// query checks.
func (e *Entry) Watch(ctx context.Context, ck *core.Checker, workers int, queries []string) error {
	e.maint.Lock()
	defer e.maint.Unlock()
	var fresh []*watchedVerdict
	seen := make(map[string]bool, len(queries))
	for _, src := range queries {
		if _, ok := e.verdicts[src]; ok || seen[src] {
			continue
		}
		seen[src] = true
		q, err := e.Query(src)
		if err != nil {
			return fmt.Errorf("watch query %q: %w", src, err)
		}
		if !q.Lang().Monotone() || !e.V.AllMonotone() {
			return fmt.Errorf("watch query %q: undecidable fragment", src)
		}
		fresh = append(fresh, &watchedVerdict{src: src, q: q})
	}
	e.rlock()
	results, errs := e.checkAll(ctx, ck, workers, fresh)
	e.mu.RUnlock()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("watch query %q: %w", fresh[i].src, err)
		}
	}
	e.lock()
	defer e.mu.Unlock()
	for i, wv := range fresh {
		wv.prev = results[i]
		e.watched = append(e.watched, wv.src)
		e.verdicts[wv.src] = wv
	}
	e.bump()
	return nil
}

// bump advances the entry version and wakes parked long-polls. Callers
// hold e.mu.
func (e *Entry) bump() {
	e.version++
	close(e.changed)
	e.changed = make(chan struct{})
}

// Mutate applies dl to the entry and maintains every watched verdict.
// The batch's invisibility gate (core.Delta.Gate) is evaluated once, on
// the PRE-apply state — the projections and active domain the cached
// results were computed against — and after the batch applies,
// core.DeltaGate.Reuse keeps each verdict it proves untouched; the rest
// rerun cold over the incrementally patched data. An apply error (e.g.
// arity mismatch) leaves the entry unchanged; a recheck error keeps the
// batch applied (it already happened), resets that query's verdict to
// stale and is reported, first in watch order, after the remaining
// queries are maintained.
//
// Mutations run one at a time (e.maint), so the gate can run under the
// read side of e.mu: nothing else changes the data it reads. The write
// side is held twice, briefly: to apply the batch, so no check sees it
// half applied, and to publish the new verdicts and version. The reuse
// decisions and the cold rechecks run in between under the read side,
// beside the entry's checks, spread over at most workers goroutines.
// Until the publish, the verdicts endpoint serves the previous version.
func (e *Entry) Mutate(ctx context.Context, ck *core.Checker, workers int, dl *core.Delta) (mutationOutcome, error) {
	e.maint.Lock()
	defer e.maint.Unlock()
	var out mutationOutcome
	if e.D == nil {
		return out, fmt.Errorf("catalog %q has no resident database", e.Name)
	}
	watched := make([]*watchedVerdict, len(e.watched))
	for i, src := range e.watched {
		watched[i] = e.verdicts[src]
	}
	e.rlock()
	gate := dl.Gate(e.D, e.Dm, e.V)
	e.mu.RUnlock()
	e.lock()
	var err error
	out.ins, out.del, err = dl.Apply(e.D, e.Dm, e.V)
	e.mu.Unlock()
	if err != nil {
		return mutationOutcome{}, err
	}

	e.rlock()
	if e.inRecheck != nil {
		e.inRecheck()
	}
	reused := make([]bool, len(watched))
	var cold []*watchedVerdict
	for i, wv := range watched {
		if gate.Reuse(wv.q, wv.prev, e.D, e.Dm, e.V) {
			reused[i] = true
			out.reused++
			continue
		}
		out.rechecked++
		cold = append(cold, wv)
	}
	results, errs := e.checkAll(ctx, ck, workers, cold)
	e.mu.RUnlock()

	var firstErr error
	e.lock()
	defer e.mu.Unlock()
	k := 0
	for i, wv := range watched {
		wv.reused = reused[i]
		if reused[i] {
			continue
		}
		wv.prev = results[k]
		if errs[k] != nil && firstErr == nil {
			firstErr = fmt.Errorf("recheck %q: %w", wv.src, errs[k])
		}
		k++
	}
	e.bump()
	out.version = e.version
	return out, firstErr
}

// checkAll runs a cold RCDP check of every watched query over the
// entry's current (D, Dm, V), sharing one core.Prepare setup, on at
// most workers goroutines (the caller's among them). Results and errors
// come back in the order of wvs; a failed check's result is nil, and a
// witness is warmed for concurrent readers.
// Callers hold the read side of e.mu.
func (e *Entry) checkAll(ctx context.Context, ck *core.Checker, workers int, wvs []*watchedVerdict) ([]*core.RCDPResult, []error) {
	results := make([]*core.RCDPResult, len(wvs))
	errs := make([]error, len(wvs))
	prep := core.Prepare(e.D, e.Dm, e.V)
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < len(wvs); i = int(next.Add(1)) - 1 {
			res, err := ck.RCDPPreparedCtx(ctx, wvs[i].q, prep)
			switch {
			case err != nil:
				res = nil
			case res.Extension != nil:
				// Verdict readers format the witness concurrently, and
				// its lazily sorted tuples must be built before then.
				res.Extension.Warm()
			}
			results[i], errs[i] = res, err
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(wvs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	return results, errs
}

// verdictsSnapshot returns the current version, the channel the next
// bump closes, and the wire-form verdicts in watch order.
func (e *Entry) verdictsSnapshot() (uint64, <-chan struct{}, []WatchedVerdict) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]WatchedVerdict, 0, len(e.watched))
	for _, src := range e.watched {
		wv := e.verdicts[src]
		out = append(out, watchedJSON(src, wv.prev, wv.reused))
	}
	return e.version, e.changed, out
}

// watchedJSON is the wire form of one maintained verdict; a nil result
// (a failed recheck) reads "stale".
func watchedJSON(src string, res *core.RCDPResult, reused bool) WatchedVerdict {
	wj := WatchedVerdict{Query: src, Verdict: "stale", Reused: reused}
	if res != nil {
		wj.Verdict = res.Verdict.String()
		wj.Reason = res.Reason.String()
		if res.Verdict == core.VerdictIncomplete {
			wj.Extension = textq.FormatDatabase(res.Extension)
			wj.NewTuple = tupleJSON(res.NewTuple)
		}
	}
	return wj
}

// serveMutation builds the insert/delete endpoint body for the shared
// admission machinery; the catalog name comes from the route pattern.
func (s *Server) serveMutation(op string) func(ctx context.Context, id string, req *MutationRequest, w http.ResponseWriter, r *http.Request) {
	return func(ctx context.Context, id string, req *MutationRequest, w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		e := s.catalog.Get(name)
		if e == nil {
			writeError(w, id, http.StatusNotFound, "catalog %q is not registered", name)
			return
		}
		target := req.Target
		if target == "" {
			target = "db"
		}
		var schemas map[string]*relation.Schema
		switch target {
		case "db":
			schemas = e.Schemas
		case "master":
			schemas = e.MasterSchemas
		default:
			writeError(w, id, http.StatusBadRequest, `target must be "db" or "master"`)
			return
		}
		tuples, err := factsTuples(req.Facts, schemas)
		if err != nil {
			writeError(w, id, http.StatusBadRequest, "facts: %v", err)
			return
		}
		dl := &core.Delta{Master: target == "master"}
		if op == "insert" {
			dl.Inserts = tuples
		} else {
			dl.Deletes = tuples
		}
		ck := &core.Checker{Workers: s.cfg.CheckWorkers, Budget: s.effectiveBudget(nil)}
		out, err := e.Mutate(ctx, ck, s.workers, dl)
		if err != nil {
			writeError(w, id, statusOf(err), "%s", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, &MutationResponse{
			RequestID: id,
			Catalog:   name,
			Op:        op,
			Target:    target,
			Inserted:  out.ins,
			Deleted:   out.del,
			Reused:    out.reused,
			Rechecked: out.rechecked,
			Version:   out.version,
		})
	}
}

// factsTuples parses a textq fact batch into per-relation tuple groups
// (the Delta wire-to-core conversion).
func factsTuples(src string, schemas map[string]*relation.Schema) (map[string][]relation.Tuple, error) {
	db, err := textq.ParseFacts(src, schemas)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]relation.Tuple)
	for _, rel := range db.Relations() {
		if ts := db.Instance(rel).Tuples(); len(ts) > 0 {
			out[rel] = ts
		}
	}
	return out, nil
}

// verdictsHandler serves GET /v1/catalog/{name}/verdicts: the
// maintained verdicts of the entry's watched queries. With ?after=N
// and ?wait_ms=T the response is held back until the entry version
// exceeds N or T milliseconds pass (long-poll), so clients observe
// verdict flips without tight polling. The handler stays outside the
// admission path on purpose: it runs no search, only reads maintained
// state, and a parked long-poll must not occupy a worker slot.
func (s *Server) verdictsHandler(w http.ResponseWriter, r *http.Request) {
	obs.ServeRequests.Inc("verdicts")
	id := s.requestID(r)
	w.Header().Set("X-Request-Id", id)
	name := r.PathValue("name")
	e := s.catalog.Get(name)
	if e == nil {
		writeError(w, id, http.StatusNotFound, "catalog %q is not registered", name)
		return
	}
	after, err := uintParam(r, "after")
	if err != nil {
		writeError(w, id, http.StatusBadRequest, "%v", err)
		return
	}
	waitMS, err := uintParam(r, "wait_ms")
	if err != nil {
		writeError(w, id, http.StatusBadRequest, "%v", err)
		return
	}
	if waitMS > maxVerdictWaitMS {
		waitMS = maxVerdictWaitMS
	}
	deadline := time.Now().Add(time.Duration(waitMS) * time.Millisecond)
	for {
		version, changed, verdicts := e.verdictsSnapshot()
		if version > after || waitMS == 0 || !time.Now().Before(deadline) {
			writeJSON(w, http.StatusOK, &VerdictsResponse{
				RequestID: id, Catalog: e.Name, Version: version, Verdicts: verdicts,
			})
			return
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-changed:
			timer.Stop()
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
}

// uintParam parses an optional unsigned query parameter (absent = 0).
func uintParam(r *http.Request, name string) (uint64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", name, err)
	}
	return n, nil
}
