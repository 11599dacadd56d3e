package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/approx"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/mine"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/textq"
)

// replayer re-executes traced ops through the library, in spans, so the
// reducer can split an op's time by layer. It holds its own parsed copy
// of every catalog (and of the mutate-mix resident state), so nothing it
// does touches the server's objects.
type replayer struct {
	w   *workload
	ck  *core.Checker
	cat map[string]*textq.Problem
	qs  map[string]qlang.Query // parsed once, like the server's query cache

	watched []qlang.Query // resident-D maintenance state of the catalog with watched queries
	prev    []*core.RCDPResult
}

func newReplayer(w *workload) (*replayer, error) {
	r := &replayer{w: w, ck: &core.Checker{Workers: w.checkWorkers}, cat: map[string]*textq.Problem{}, qs: map[string]qlang.Query{}}
	for _, reg := range w.catalogs {
		p, err := textq.ParseProblemData(registrationSource(reg))
		if err != nil {
			return nil, err
		}
		r.cat[reg.Name] = p
		for _, src := range reg.Queries {
			q, err := r.query(reg.Name, src)
			if err != nil {
				return nil, err
			}
			res, err := r.ck.RCDPCtx(context.Background(), q, p.D, p.Dm, p.V)
			if err != nil {
				return nil, err
			}
			r.watched, r.prev = append(r.watched, q), append(r.prev, res)
		}
	}
	return r, nil
}

func registrationSource(reg server.CatalogRequest) textq.ProblemSource {
	return textq.ProblemSource{Schemas: reg.Schemas, MasterSchemas: reg.MasterSchemas, DB: reg.DB,
		Master: reg.Master, Constraints: reg.Constraints}
}

func (r *replayer) query(catalog, src string) (qlang.Query, error) {
	k := catalog + "\x00" + src
	if q, ok := r.qs[k]; ok {
		return q, nil
	}
	q, err := textq.ParseQuery(src, r.cat[catalog].Schemas)
	if err == nil {
		r.qs[k] = q
	}
	return q, err
}

// register replays the parse of every catalog registration, a few
// times over so that its mean is not one sample.
func (r *replayer) register(t *tracer) error {
	for i := 0; i < 5; i++ {
		for _, reg := range r.w.catalogs {
			err := t.timed(t.newID(), 0, "textq.register", func() error {
				_, err := textq.ParseProblemData(registrationSource(reg))
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// replay re-executes one traced op under a "replay" root span.
func (r *replayer) replay(t *tracer, id int64, o *op) error {
	root := t.begin(id, 0, "replay")
	defer t.end(root)
	sp := root.id
	decode := func(v any) error {
		return t.timed(id, sp, "server.decode", func() error { return json.Unmarshal(o.body, v) })
	}
	switch {
	case o.path == "/v1/rcdp" || o.path == "/v1/rcqp":
		var req server.CheckRequest
		if err := decode(&req); err != nil {
			return err
		}
		return r.check(t, id, sp, &req, o.path == "/v1/rcqp")
	case o.path == "/v1/batch":
		var req server.BatchRequest
		if err := decode(&req); err != nil {
			return err
		}
		d, err := r.facts(t, id, sp, req.Catalog, req.DB)
		if err != nil {
			return err
		}
		p := r.cat[req.Catalog]
		for _, src := range req.Queries {
			q, err := r.query(req.Catalog, src)
			if err != nil {
				return err
			}
			if err := r.rcdp(t, id, sp, q, d, p.Dm, p.V); err != nil {
				return err
			}
		}
		return nil
	case o.path == "/v1/approximate" || o.path == "/v1/advise":
		var req server.ApproxRequest // serverApproxOptions holds its knobs
		if err := decode(&req); err != nil {
			return err
		}
		d, err := r.facts(t, id, sp, req.Catalog, req.DB)
		if err != nil {
			return err
		}
		q, err := r.query(req.Catalog, req.Query)
		if err != nil {
			return err
		}
		p := r.cat[req.Catalog]
		if o.path == "/v1/advise" {
			return t.timed(id, sp, "approx.advise", func() error {
				_, err := approx.Advise(context.Background(), q, d, p.Dm, p.V, serverApproxOptions())
				return err
			})
		}
		return t.timed(id, sp, "approx.approximate", func() error {
			_, err := approx.Approximate(context.Background(), q, d, p.Dm, p.V, serverApproxOptions())
			return err
		})
	case o.path == "/v1/mine":
		var req server.MineRequest
		if err := decode(&req); err != nil {
			return err
		}
		var pairs []mine.Pair
		err := t.timed(id, sp, "mine.parse_evidence", func() (err error) {
			pairs, err = mine.ParseEvidence(req.Evidence)
			return err
		})
		if err != nil {
			return err
		}
		return t.timed(id, sp, "mine.mine", func() error {
			_, err := mine.Mine(context.Background(), pairs, serverMineOptions())
			return err
		})
	case strings.HasPrefix(o.path, "/v1/catalog/"):
		var req server.MutationRequest
		if err := decode(&req); err != nil {
			return err
		}
		return r.mutate(t, id, sp, o.path, &req)
	}
	return fmt.Errorf("replay: no library path for %s", o.path)
}

// facts parses a request-carried database against a catalog's schemas.
func (r *replayer) facts(t *tracer, id, parent int64, catalog, src string) (*relation.Database, error) {
	var d *relation.Database
	err := t.timed(id, parent, "textq.parse_facts", func() (err error) {
		d, err = textq.ParseFacts(src, r.cat[catalog].Schemas)
		return err
	})
	return d, err
}

func (r *replayer) check(t *tracer, id, parent int64, req *server.CheckRequest, rcqp bool) error {
	var p *textq.Problem
	var q qlang.Query
	if req.Catalog != "" {
		cat := r.cat[req.Catalog]
		d, err := r.facts(t, id, parent, req.Catalog, req.DB)
		if err != nil {
			return err
		}
		if q, err = r.query(req.Catalog, req.Query); err != nil {
			return err
		}
		p = &textq.Problem{Schemas: cat.Schemas, D: d, Dm: cat.Dm, V: cat.V}
	} else {
		err := t.timed(id, parent, "textq.parse_problem", func() (err error) {
			p, err = textq.ParseProblem(textq.ProblemSource{Schemas: req.Schemas, MasterSchemas: req.MasterSchemas,
				DB: req.DB, Master: req.Master, Constraints: req.Constraints, Query: req.Query})
			return err
		})
		if err != nil {
			return err
		}
		q = p.Q
	}
	if rcqp {
		return t.timed(id, parent, "core.check", func() error {
			_, err := (&core.QPChecker{Checker: *r.ck}).RCQPCtx(context.Background(), q, p.Dm, p.V, p.Schemas)
			return err
		})
	}
	if err := r.rcdp(t, id, parent, q, p.D, p.Dm, p.V); err != nil {
		return err
	}
	if !req.Degree {
		return nil
	}
	return t.timed(id, parent, "core.degree", func() error {
		_, err := degreeChecker().DegreeCtx(context.Background(), q, p.D, p.Dm, p.V)
		return err
	})
}

// rcdp evaluates Q(D) through the cq join engine, then runs the check.
func (r *replayer) rcdp(t *tracer, id, parent int64, q qlang.Query, d, dm *relation.Database, v *cc.Set) error {
	if err := t.timed(id, parent, "cq.eval", func() error { _, err := q.Eval(d); return err }); err != nil {
		return err
	}
	return t.timed(id, parent, "core.check", func() error {
		_, err := r.ck.RCDPCtx(context.Background(), q, d, dm, v)
		return err
	})
}

// mutate mirrors the catalog's maintenance step on the replay copy:
// gate every watched verdict on the pre-apply state, apply the delta,
// then recheck the verdicts the gate did not clear.
func (r *replayer) mutate(t *tracer, id, parent int64, path string, req *server.MutationRequest) error {
	name := strings.Split(strings.TrimPrefix(path, "/v1/catalog/"), "/")[0]
	p := r.cat[name]
	schemas := p.Schemas
	if req.Target == "master" {
		schemas = p.MasterSchemas
	}
	var facts *relation.Database
	err := t.timed(id, parent, "textq.parse_facts", func() (err error) {
		facts, err = textq.ParseFacts(req.Facts, schemas)
		return err
	})
	if err != nil {
		return err
	}
	tuples := map[string][]relation.Tuple{}
	for _, rel := range facts.Relations() {
		if ts := facts.Instance(rel).Tuples(); len(ts) > 0 {
			tuples[rel] = ts
		}
	}
	dl := &core.Delta{Master: req.Target == "master"}
	if strings.HasSuffix(path, "/insert") {
		dl.Inserts = tuples
	} else {
		dl.Deletes = tuples
	}
	rc := t.begin(id, parent, "core.recheck")
	defer t.end(rc)
	gates := make([]bool, len(r.watched))
	for i, q := range r.watched {
		gates[i] = core.ResultReusable(r.prev[i]) && dl.WitnessReusable(q, p.D, p.Dm, p.V)
	}
	err = t.timed(id, rc.id, "relation.apply_batch", func() error {
		_, _, err := dl.Apply(p.D, p.Dm, p.V)
		return err
	})
	if err != nil {
		return err
	}
	for i, q := range r.watched {
		if gates[i] {
			continue
		}
		res, err := r.ck.RCDPCtx(context.Background(), q, p.D, p.Dm, p.V)
		if err != nil {
			return err
		}
		r.prev[i] = res
	}
	return nil
}
