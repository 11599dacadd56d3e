package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/textq"
)

// BatchRequest is the body of POST /v1/batch: many queries against one
// master-data context and one database instance. The shared parts —
// catalog reference or inline schemas/master/constraints, the DB
// facts, the budget override — are decoded, parsed and resolved once;
// only the query text varies per item. Endpoint selects the check the
// queries run through ("rcdp" by default, "rcqp" or "bounded").
type BatchRequest struct {
	Catalog       string `json:"catalog,omitempty"`
	Schemas       string `json:"schemas,omitempty"`
	MasterSchemas string `json:"master_schemas,omitempty"`
	DB            string `json:"db,omitempty"`
	Master        string `json:"master,omitempty"`
	Constraints   string `json:"constraints,omitempty"`

	Endpoint string   `json:"endpoint,omitempty"`
	Queries  []string `json:"queries"`

	Budget *BudgetOverride `json:"budget,omitempty"`

	// Bounded-search knobs (endpoint "bounded" only).
	MaxAdd      int `json:"max_add,omitempty"`
	FreshValues int `json:"fresh_values,omitempty"`

	// Degree knobs (endpoint "rcdp" only): every item's response then
	// carries the quantitative completeness score, governed like the
	// single-check degree_valuations.
	Degree           bool `json:"degree,omitempty"`
	DegreeValuations int  `json:"degree_valuations,omitempty"`
}

// BatchLine is one line of the JSONL response stream: the item's index
// in the submission order, then either the check response or the
// item's error. Lines are emitted in submission order.
type BatchLine struct {
	Index    int            `json:"index"`
	Response *CheckResponse `json:"response,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// batchShared is the once-resolved context every item of a batch runs
// against. release, when non-nil, must be called after the last item:
// catalog-backed batches hold the entry's read lock for their whole
// run so a concurrent mutation cannot patch Dm or V mid-stream. prep is
// the batch's (D, Dm, V) handle: partial closure, the relevant-value
// groups and the base of Adom are set up once for all its RCDP items.
type batchShared struct {
	entry   *Entry // non-nil on the catalog path (query cache)
	schemas map[string]*relation.Schema
	d       *relation.Database
	dm      *relation.Database
	v       *cc.Set
	prep    *core.Prepared
	release func()
}

// resolveBatchShared parses the batch's shared parts once: the
// catalog lookup (or the inline master-data context) and the DB facts.
func (s *Server) resolveBatchShared(req *BatchRequest) (*batchShared, error) {
	if req.Catalog != "" {
		if req.Schemas != "" || req.MasterSchemas != "" || req.Master != "" || req.Constraints != "" {
			return nil, httpErrorf(http.StatusBadRequest,
				"catalog %q conflicts with inline schemas/master/constraints", req.Catalog)
		}
		e := s.catalog.Get(req.Catalog)
		if e == nil {
			return nil, httpErrorf(http.StatusNotFound, "catalog %q is not registered", req.Catalog)
		}
		// Parse before locking: e.Schemas is fixed at registration.
		d, err := textq.ParseFacts(req.DB, e.Schemas)
		if err != nil {
			return nil, httpErrorf(http.StatusBadRequest, "db: %v", err)
		}
		e.rlock()
		return &batchShared{entry: e, schemas: e.Schemas, d: d, dm: e.Dm, v: e.V,
			prep: core.Prepare(d, e.Dm, e.V), release: e.mu.RUnlock}, nil
	}
	p, err := textq.ParseProblemData(textq.ProblemSource{
		Schemas:       req.Schemas,
		MasterSchemas: req.MasterSchemas,
		Master:        req.Master,
		Constraints:   req.Constraints,
	})
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "%v", err)
	}
	d, err := textq.ParseFacts(req.DB, p.Schemas)
	if err != nil {
		return nil, httpErrorf(http.StatusBadRequest, "db: %v", err)
	}
	return &batchShared{schemas: p.Schemas, d: d, dm: p.Dm, v: p.V, prep: core.Prepare(d, p.Dm, p.V)}, nil
}

// query parses one item's query against the shared context, through
// the catalog entry's compiled-query cache when there is one.
func (bs *batchShared) query(src string) (qlang.Query, error) {
	if bs.entry != nil {
		return bs.entry.Query(src)
	}
	return textq.ParseQuery(src, bs.schemas)
}

// batchRunner resolves the Endpoint field to the per-item run
// function.
func (s *Server) batchRunner(endpoint string) (func(ctx context.Context, in *checkInput) (*CheckResponse, error), error) {
	switch endpoint {
	case "", "rcdp":
		return s.runRCDP, nil
	case "rcqp":
		return s.runRCQP, nil
	case "bounded":
		return s.runBounded, nil
	default:
		return nil, httpErrorf(http.StatusBadRequest,
			"unknown endpoint %q: want rcdp, rcqp or bounded", endpoint)
	}
}

// serveBatch streams the batch's responses as JSONL in submission
// order. The whole batch holds one admission and one worker slot:
// parse, catalog lookup, HTTP overhead and the (D, Dm, V) setup of the
// RCDP checks are paid once, and the queries run back-to-back on the
// already-warm shared objects.
// Request-level failures (bad shared parts, unknown endpoint) are
// ordinary JSON errors; per-item failures are error lines in the
// stream, which always carries exactly len(queries) lines.
func (s *Server) serveBatch(ctx context.Context, id string, req *BatchRequest, w http.ResponseWriter, _ *http.Request) {
	if len(req.Queries) == 0 {
		writeError(w, id, http.StatusBadRequest, "queries is required")
		return
	}
	run, err := s.batchRunner(req.Endpoint)
	if err != nil {
		writeError(w, id, statusOf(err), "%s", err.Error())
		return
	}
	shared, err := s.resolveBatchShared(req)
	if err != nil {
		writeError(w, id, statusOf(err), "%s", err.Error())
		return
	}
	if shared.release != nil {
		defer shared.release()
	}
	budget := s.effectiveBudget(req.Budget)

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	creq := &CheckRequest{
		Catalog: req.Catalog, DB: req.DB,
		MaxAdd: req.MaxAdd, FreshValues: req.FreshValues,
		Degree: req.Degree, DegreeValuations: req.DegreeValuations,
	}
	for i, src := range req.Queries {
		line := BatchLine{Index: i}
		if ctx.Err() != nil {
			// Client gone or deadline passed: answer the remaining
			// items without running them so the stream stays complete.
			line.Error = ctx.Err().Error()
		} else if q, err := shared.query(src); err != nil {
			line.Error = err.Error()
		} else {
			in := &checkInput{
				schemas: shared.schemas, d: shared.d, dm: shared.dm, v: shared.v,
				prep: shared.prep, q: q, budget: budget, req: creq,
			}
			resp, err := run(ctx, in)
			if err != nil {
				line.Error = err.Error()
			} else {
				resp.RequestID = batchItemID(id, i)
				obs.ServeVerdicts.Inc(resp.Verdict)
				line.Response = resp
			}
		}
		if err := enc.Encode(line); err != nil {
			return // client gone mid-stream
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// batchItemID mints the per-item request id: the batch id plus the
// item index.
func batchItemID(batchID string, index int) string {
	return batchID + "." + strconv.Itoa(index)
}
