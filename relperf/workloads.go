package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/textq"
)

// The four workloads. All are closed loop, because callers wait for
// each verdict before they use their data, and each uses at most two
// clients, the core count of the host the benchmark was tuned on.
var workloadNames = []string{"serve-crm", "hard-search", "mutate-mix", "analyze"}

// op is one prebuilt request: the latency class it reports under, its
// HTTP path and body, how many operations it counts for (a batch counts
// as its queries), and how to check the answer. want is the expected
// check answer, held by pointer so that a test can corrupt it.
type op struct {
	class  string // check, batch, mutation, approximate, advise, mine, degree
	path   string
	body   []byte
	items  int64
	want   *checkWant
	verify func(status int, body []byte) (failedItems int64, err error)
}

// workload is one seeded traffic mix against one server configuration.
type workload struct {
	name         string
	clients      int
	checkWorkers int
	catalogs     []server.CatalogRequest
	warm         []*op   // sent once per set-up; only their status is checked
	streams      [][]*op // per client, cycled in order
	// finish, when set, runs after the measured phase and returns the
	// items it checked and how many of them were wrong.
	finish func(h *harness) (attempted, failed int64, err error)
}

// streamLen is the per-client op sequence length before it cycles. It
// holds a whole number of rounds of every dealt mix: 576·7/8 and 576·3/4
// single checks are multiples of the 72 (D variant, query) pairs.
const streamLen = 576

func buildWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "serve-crm":
		return buildServeCRM(seed)
	case "hard-search":
		return buildHardSearch(seed)
	case "mutate-mix":
		return buildMutateMix(seed)
	case "analyze":
		return buildAnalyze(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request and expectation structs always marshal
	}
	return b
}

func snippet(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// checkOp builds a single /v1/rcdp or /v1/rcqp check. exact also pins
// the witness head tuple, which the sequential engine fixes.
func checkOp(path string, req server.CheckRequest, want checkWant, exact bool) *op {
	o := &op{class: "check", path: path, body: mustJSON(req), items: 1, want: &want}
	o.verify = func(status int, body []byte) (int64, error) {
		if status != 200 {
			return 1, fmt.Errorf("%s: status %d: %s", path, status, snippet(body))
		}
		var resp server.CheckResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return 1, fmt.Errorf("%s: %v", path, err)
		}
		if err := compareCheck(&resp, o.want, exact); err != nil {
			return 1, err
		}
		return 0, nil
	}
	return o
}

func compareCheck(resp *server.CheckResponse, want *checkWant, exact bool) error {
	if resp.Verdict != want.verdict {
		return fmt.Errorf("verdict %q, want %q", resp.Verdict, want.verdict)
	}
	if exact && !reflect.DeepEqual(resp.NewTuple, want.newTuple) {
		return fmt.Errorf("new tuple %v, want %v", resp.NewTuple, want.newTuple)
	}
	return nil
}

// batchOp builds a /v1/batch of the given queries against one D.
func batchOp(catalog, db string, queries []string, wants []*checkWant) *op {
	o := &op{class: "batch", path: "/v1/batch", items: int64(len(queries)),
		body: mustJSON(server.BatchRequest{Catalog: catalog, DB: db, Queries: queries})}
	o.verify = func(status int, body []byte) (int64, error) {
		if status != 200 {
			return o.items, fmt.Errorf("batch: status %d: %s", status, snippet(body))
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		var failed int64
		var first error
		n := 0
		for ; dec.More(); n++ {
			var line server.BatchLine
			if err := dec.Decode(&line); err != nil {
				return o.items, fmt.Errorf("batch: %v", err)
			}
			var err error
			switch {
			case line.Index != n || n >= len(wants):
				err = fmt.Errorf("batch line %d has index %d", n, line.Index)
			case line.Response == nil:
				err = fmt.Errorf("batch item %d: %s", n, line.Error)
			default:
				err = compareCheck(line.Response, wants[n], true)
			}
			if err != nil {
				failed++
				if first == nil {
					first = err
				}
			}
		}
		if n != len(wants) {
			return o.items, fmt.Errorf("batch: %d lines for %d queries", n, len(wants))
		}
		return failed, first
	}
	return o
}

// crmSingles builds one single check per (D variant, query).
func crmSingles(c *crmContext, queries []string, wants [][]checkWant) [][]*op {
	out := make([][]*op, len(c.dbs))
	for vi, db := range c.dbs {
		for qi, q := range queries {
			out[vi] = append(out[vi], checkOp("/v1/rcdp",
				server.CheckRequest{Catalog: c.reg.Name, DB: db, Query: q}, wants[vi][qi], true))
		}
	}
	return out
}

// deck deals 0..n-1 in rounds, each round freshly shuffled, so every
// value comes up equally often and a run's mix owes nothing to sampling
// luck.
type deck struct {
	rng  *rand.Rand
	n    int
	left []int
}

func (d *deck) next() int {
	if len(d.left) == 0 {
		d.left = d.rng.Perm(d.n)
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// crmStream builds one client's op sequence: single checks dealt over
// every (D variant, query) pair, except that every every-th op comes
// from special(k), k counting those ops.
func crmStream(rng *rand.Rand, singles [][]*op, every int, special func(k int) *op) []*op {
	nq := len(singles[0])
	pairs := &deck{rng: rng, n: len(singles) * nq}
	var s []*op
	for i := 0; i < streamLen; i++ {
		if i%every == every-1 {
			s = append(s, special(i/every))
			continue
		}
		p := pairs.next()
		s = append(s, singles[p/nq][p%nq])
	}
	return s
}

// crmCompleteness are the completeness levels of the D variants checks
// carry; more variants average out more of one seed's data.
var crmCompleteness = []float64{1.0, 0.95, 0.9, 0.85, 0.8, 0.75}

// serve-crm: the production shape. Two clients send catalog-backed
// checks of a small hot query set against CRM-400 with request-carried
// D variants; one request in eight is a batch of 16.
func buildServeCRM(seed int64) (*workload, error) {
	c, err := newCRMContext("crm", seed, 400, crmCompleteness, false)
	if err != nil {
		return nil, err
	}
	queries := crmQueries()
	wants, err := crmExpectations(c, queries)
	if err != nil {
		return nil, err
	}
	singles := crmSingles(c, queries, wants)
	batch := func(vi int, qis []int) *op {
		qs := make([]string, len(qis))
		ws := make([]*checkWant, len(qis))
		for j, qi := range qis {
			qs[j], ws[j] = queries[qi], singles[vi][qi].want
		}
		return batchOp(c.reg.Name, c.dbs[vi], qs, ws)
	}
	w := &workload{name: "serve-crm", clients: 2, checkWorkers: 1, catalogs: []server.CatalogRequest{c.reg}}
	for vi := range singles {
		w.warm = append(w.warm, singles[vi]...)
	}
	w.warm = append(w.warm, batch(0, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3}))
	for cl := 0; cl < w.clients; cl++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(cl)))
		variants, qdeck := &deck{rng: rng, n: len(c.dbs)}, &deck{rng: rng, n: len(queries)}
		w.streams = append(w.streams, crmStream(rng, singles, 8, func(int) *op {
			qis := make([]int, 16)
			for j := range qis {
				qis[j] = qdeck.next()
			}
			return batch(variants.next(), qis)
		}))
	}
	return w, nil
}

// hardPool is the number of distinct hard-search problems generated per
// seed; a run that exhausts it starts over.
const hardPool = 1600

// hard-search: one client sends distinct inline hardness reductions —
// ∀∃-3SAT as RCDP at 8–10 variables and 3SAT as RCQP at 16–20 — to a
// server running CheckWorkers = 2, so the valuation search and its
// parallel pool dominate. Verdicts are checked against internal/sat.
func buildHardSearch(seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	next := func(i int) (*op, error) {
		if i%4 == 3 {
			// Only satisfiable formulas: on an unsatisfiable one the
			// checker answers "yes" by enumerating all 2^n assignments
			// into a witness database, without checking for
			// cancellation, which at 16+ variables outlasts any run.
			n := 16 + rng.Intn(5)
			phi := randomCNF(rng, n, rcqpClauses(n))
			for _, ok := phi.Solve(); !ok; _, ok = phi.Solve() {
				phi = randomCNF(rng, n, rcqpClauses(n))
			}
			req, want, err := threeSATRequest(phi)
			if err != nil {
				return nil, err
			}
			return checkOp("/v1/rcqp", req, checkWant{verdict: want}, false), nil
		}
		n := 8 + rng.Intn(3)
		req, want, err := forallExistsRequest(randomCNF(rng, n, rcdpClauses(n)), n/2)
		if err != nil {
			return nil, err
		}
		return checkOp("/v1/rcdp", req, checkWant{verdict: want}, false), nil
	}
	w := &workload{name: "hard-search", clients: 1, checkWorkers: 2}
	var s []*op
	for i := 0; i < hardPool+8; i++ {
		o, err := next(i)
		if err != nil {
			return nil, err
		}
		s = append(s, o)
	}
	w.warm, w.streams = s[:8], [][]*op{s[8:]}
	return w, nil
}

// Clause counts of the random instances. n-2 clauses make about a third
// of the ∀∃ instances true, i.e. complete, and only complete verdicts
// search exhaustively; 4.25n clauses put 3SAT near its threshold, where
// satisfying assignments are hardest to find.
func rcdpClauses(n int) int { return n - 2 }
func rcqpClauses(n int) int { return 4*n + n/4 }

// mixState tracks one mutate-mix client's DB-side facts: the client owns
// them, inserts and deletes them in pairs, and knows which are resident.
type mixState struct {
	resident map[string]bool
}

// mutationOp builds one catalog mutation and its check. A DB-side
// insert or delete must change exactly one row and recheck every watched
// query (the invisibility gate never passes D-side changes); a master
// duplicate must change nothing and reuse every maintained verdict.
func mutationOp(catalog, kind, target, fact string, watched int, st *mixState) *op {
	o := &op{class: "mutation", path: "/v1/catalog/" + catalog + "/" + kind, items: 1,
		body: mustJSON(server.MutationRequest{Target: target, Facts: fact})}
	o.verify = func(status int, body []byte) (int64, error) {
		if status != 200 {
			return 1, fmt.Errorf("%s: status %d: %s", o.path, status, snippet(body))
		}
		var resp server.MutationResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return 1, err
		}
		want := server.MutationResponse{Rechecked: watched}
		switch {
		case target == "master":
			want = server.MutationResponse{Reused: watched}
		case kind == "insert":
			want.Inserted = 1
			st.resident[fact] = true
		default:
			want.Deleted = 1
			delete(st.resident, fact)
		}
		if resp.Inserted != want.Inserted || resp.Deleted != want.Deleted ||
			resp.Reused != want.Reused || resp.Rechecked != want.Rechecked {
			return 1, fmt.Errorf("%s %s: got +%d -%d reused %d rechecked %d, want +%d -%d reused %d rechecked %d",
				kind, fact, resp.Inserted, resp.Deleted, resp.Reused, resp.Rechecked,
				want.Inserted, want.Deleted, want.Reused, want.Rechecked)
		}
		return 0, nil
	}
	return o
}

// mixWatched are the queries the mutate-mix entry maintains.
func mixWatched() []string {
	return []string{q0("908"), q0("973"), q0("201"), q2("e00"), q2("e01"), q2("e02"),
		areaUnion("U", "908", "973", "201", "609"), areaUnion("F", "908", "973", "201")}
}

// mutate-mix: writes beside reads. Two clients work on a catalog with a
// resident D and eight watched queries. One op in four is a mutation:
// DB-side insert/delete pairs (gate misses, rechecked under the entry's
// write lock) alternate with master-side duplicate inserts (gate hits).
// The rest are serve-crm-style checks on the same entry.
func buildMutateMix(seed int64) (*workload, error) {
	c, err := newCRMContext("mix", seed, 400, crmCompleteness, true)
	if err != nil {
		return nil, err
	}
	c.reg.Queries = mixWatched()
	queries := crmQueries()
	wants, err := crmExpectations(c, queries)
	if err != nil {
		return nil, err
	}
	singles := crmSingles(c, queries, wants)
	w := &workload{name: "mutate-mix", clients: 2, checkWorkers: 1, catalogs: []server.CatalogRequest{c.reg}}
	for vi := range singles {
		w.warm = append(w.warm, singles[vi]...)
	}
	domestic := c.domesticCustomers()
	masterRows := factLines(c.reg.Master)
	watched := len(c.reg.Queries)
	states := make([]*mixState, w.clients)
	for cl := 0; cl < w.clients; cl++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(cl)))
		st := &mixState{resident: map[string]bool{}}
		states[cl] = st
		// The mutation cycle: insert f, master duplicate, delete f, master
		// duplicate. streamLen/4 mutations per stream cycle keep every
		// insert paired with its delete when the stream wraps.
		var muts []*op
		for k := 0; k < streamLen/4; k += 4 {
			fact := fmt.Sprintf("Supt(m%dx%d, sales, %s).", cl, k/4, domestic[rng.Intn(len(domestic))])
			dup := func() *op {
				return mutationOp(c.reg.Name, "insert", "master", masterRows[rng.Intn(len(masterRows))], watched, st)
			}
			muts = append(muts,
				mutationOp(c.reg.Name, "insert", "db", fact, watched, st), dup(),
				mutationOp(c.reg.Name, "delete", "db", fact, watched, st), dup())
		}
		w.streams = append(w.streams, crmStream(rng, singles, 4, func(k int) *op { return muts[k%len(muts)] }))
	}
	w.finish = func(h *harness) (int64, int64, error) { return finishMix(h, c, states) }
	return w, nil
}

// finishMix compares the entry's maintained verdicts with a cold
// sequential RCDP over the final resident D: the registered D plus the
// facts each client left inserted.
func finishMix(h *harness, c *crmContext, states []*mixState) (int64, int64, error) {
	var resp server.VerdictsResponse
	if err := h.getJSON("/v1/catalog/"+c.reg.Name+"/verdicts", &resp); err != nil {
		return 0, 0, err
	}
	db := c.reg.DB
	for _, st := range states {
		var facts []string
		for f := range st.resident {
			facts = append(facts, f)
		}
		sort.Strings(facts)
		for _, f := range facts {
			db += f + "\n"
		}
	}
	// A fresh parse: the benchmark's own copies of Dm and V must not
	// share memos with anything that ran before.
	src := c.source()
	src.DB = db
	p, err := textq.ParseProblemData(src)
	if err != nil {
		return 0, 0, err
	}
	n := int64(len(c.reg.Queries))
	if len(resp.Verdicts) != len(c.reg.Queries) {
		return n, n, fmt.Errorf("verdicts: %d entries for %d watched queries", len(resp.Verdicts), n)
	}
	var failed int64
	var first error
	for i, qsrc := range c.reg.Queries {
		q, err := textq.ParseQuery(qsrc, p.Schemas)
		if err != nil {
			return 0, 0, err
		}
		want, err := expectRCDP(q, p.D, p.Dm, p.V)
		if err != nil {
			return 0, 0, err
		}
		got := resp.Verdicts[i]
		err = compareCheck(&server.CheckResponse{Verdict: got.Verdict, NewTuple: got.NewTuple}, &want, true)
		if err == nil && got.Query != qsrc {
			err = fmt.Errorf("entry %d is %q", i, got.Query)
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("maintained verdict of %q: %v", qsrc, err)
			}
		}
	}
	return n, failed, first
}

// analyze: one client sends /v1/approximate, /v1/advise, /v1/mine and
// degree-requesting /v1/rcdp round-robin on small incomplete CRM
// instances. Each of these calls runs many oracle checks in core.
func buildAnalyze(seed int64) (*workload, error) {
	c, err := newCRMContext("crm", seed, 40, []float64{0.6, 0.5, 0.7}, false)
	if err != nil {
		return nil, err
	}
	p := c.parsed
	// Five inputs per analysis endpoint average out one seed's data; the
	// degree checks, which set the check percentiles, use three, an odd
	// count, so p50 and p90 fall inside one input's latencies rather than
	// between two.
	type input struct {
		db  int
		src string
	}
	broad := "Q(C) :- Supt(E, D, C), Cust(C, N, CC, A, P), CC = 01"
	build := func(inputs []input, mk func(q qlang.Query, d *relation.Database, r server.CheckRequest) (*op, error)) ([]*op, error) {
		var ops []*op
		for _, in := range inputs {
			q, err := textq.ParseQuery(in.src, p.Schemas)
			if err != nil {
				return nil, err
			}
			o, err := mk(q, c.parsedDB[in.db], server.CheckRequest{Catalog: c.reg.Name, DB: c.dbs[in.db], Query: in.src})
			if err != nil {
				return nil, err
			}
			ops = append(ops, o)
		}
		return ops, nil
	}
	approxOps, err := build([]input{{0, broad}, {1, q0("908")}, {2, q0("973")}, {1, q0("201")}, {2, broad}},
		func(q qlang.Query, d *relation.Database, r server.CheckRequest) (*op, error) {
			want, err := expectApprox(q, d, p.Dm, p.V)
			return approxOp(r, want), err
		})
	if err != nil {
		return nil, err
	}
	adviseOps, err := build([]input{{0, q0("201")}, {1, q0("609")}, {2, q0("908")}, {0, q0("973")}, {1, q2("e01")}},
		func(q qlang.Query, d *relation.Database, r server.CheckRequest) (*op, error) {
			want, err := expectAdvise(q, d, p.Dm, p.V)
			return adviseOp(r, want), err
		})
	if err != nil {
		return nil, err
	}
	degreeOps, err := build([]input{{0, q0("908")}, {1, q2("e00")}, {2, areaUnion("U", "973", "201")}},
		func(q qlang.Query, d *relation.Database, r server.CheckRequest) (*op, error) {
			want, err := expectDegree(q, d, p.Dm, p.V)
			r.Degree = true
			return degreeOp(r, want), err
		})
	if err != nil {
		return nil, err
	}
	var mineOps []*op
	for i := 0; i < 5; i++ {
		doc, pairs, err := mineEvidence(seed*10+int64(i), 4)
		if err != nil {
			return nil, err
		}
		want, err := expectMine(pairs)
		if err != nil {
			return nil, err
		}
		mineOps = append(mineOps, mineOp(doc, want))
	}
	w := &workload{name: "analyze", clients: 1, checkWorkers: 1, catalogs: []server.CatalogRequest{c.reg}}
	var s []*op
	for i := 0; len(s) < streamLen; i++ {
		s = append(s, approxOps[i%5], adviseOps[i%5], mineOps[i%5], degreeOps[i%3])
	}
	w.warm = s[:60] // one full cycle of the 5×3 input combinations
	w.streams = [][]*op{s}
	return w, nil
}

// answerOp builds an op whose 200 answer decodes into R and must render
// to want through render.
func answerOp[R any](class, path string, body []byte, want string, render func(*R) string) *op {
	o := &op{class: class, path: path, body: body, items: 1}
	o.verify = func(status int, b []byte) (int64, error) {
		if status != 200 {
			return 1, fmt.Errorf("%s: status %d: %s", path, status, snippet(b))
		}
		var resp R
		if err := json.Unmarshal(b, &resp); err != nil {
			return 1, err
		}
		if got := render(&resp); got != want {
			return 1, fmt.Errorf("%s: got %s, want %s", path, got, want)
		}
		return 0, nil
	}
	return o
}

func approxOp(req server.CheckRequest, want approxWant) *op {
	body := mustJSON(server.ApproxRequest{CheckRequest: req, MaxCandidates: approxCandidates})
	return answerOp("approximate", "/v1/approximate", body, key(want),
		func(r *server.ApproxResponse) string {
			got := approxWant{Verdict: r.Verdict, Explored: r.Explored, Certified: r.Certified}
			for _, s := range r.Specializations {
				got.Specializations = append(got.Specializations, s.Query)
			}
			for _, g := range r.Generalizations {
				got.Generalizations = append(got.Generalizations, g.Query)
			}
			sort.Strings(got.Specializations)
			sort.Strings(got.Generalizations)
			return key(got)
		})
}

func adviseOp(req server.CheckRequest, want adviseWant) *op {
	return answerOp("advise", "/v1/advise", mustJSON(server.AdviseRequest{CheckRequest: req}), key(want),
		func(r *server.AdviseResponse) string {
			got := adviseWant{Verdict: r.Verdict, Final: r.Final, Flipped: r.Flipped, Rounds: r.Rounds}
			for _, it := range r.Items {
				got.Facts = append(got.Facts, it.Fact)
			}
			return key(got)
		})
}

func mineOp(doc string, want mineWant) *op {
	return answerOp("mine", "/v1/mine", mustJSON(server.MineRequest{Evidence: doc}), key(want),
		func(r *server.MineResponse) string {
			got := mineWant{Enumerated: r.Enumerated, Survivors: r.Survivors, Rejected: r.Rejected}
			for _, m := range r.Constraints {
				got.Constraints = append(got.Constraints, m.Constraint)
			}
			sort.Strings(got.Constraints)
			return key(got)
		})
}

func degreeOp(req server.CheckRequest, want degreeWant) *op {
	return answerOp("degree", "/v1/rcdp", mustJSON(req), key(want),
		func(r *server.CheckResponse) string {
			if r.Degree == nil {
				return "no degree"
			}
			return key(degreeWant{Verdict: r.Degree.Verdict, Value: r.Degree.Value, Exact: r.Degree.Exact,
				Candidates: r.Degree.Candidates, Counterexamples: r.Degree.Counterexamples, CheckVerdict: r.Verdict})
		})
}

// upperVars renames every variable of c to an upper-case name: the
// reductions name variables x1, o3, …, which the textq grammar would
// read back as constants.
func upperVars(c *cq.CQ) *cq.CQ {
	ren := func(ts []query.Term) []query.Term {
		out := make([]query.Term, len(ts))
		for i, t := range ts {
			if t.IsVar {
				t = query.Var("V" + t.Name)
			}
			out[i] = t
		}
		return out
	}
	atoms := make([]query.RelAtom, len(c.Atoms))
	for i, a := range c.Atoms {
		atoms[i] = query.Atom(a.Rel, ren(a.Args)...)
	}
	conds := make([]query.EqAtom, len(c.Conds))
	for i, e := range c.Conds {
		t := ren([]query.Term{e.L, e.R})
		conds[i] = query.EqAtom{L: t[0], R: t[1], Neg: e.Neg}
	}
	return cq.New(c.Name, ren(c.Head), atoms, conds...)
}

// textqQuery and textqConstraints render reduction output in textq
// syntax, with upper-case variables.
func textqQuery(q qlang.Query) (string, error) {
	c, ok := qlang.AsCQ(q)
	if !ok {
		return "", fmt.Errorf("reduction query is not a CQ")
	}
	return textq.FormatQuery(qlang.FromCQ(upperVars(c)))
}

func textqConstraints(v *cc.Set) (string, error) {
	out := cc.NewSet()
	for _, c := range v.Constraints {
		body, ok := qlang.AsCQ(c.Q)
		if !ok {
			return "", fmt.Errorf("constraint %s is not a CQ", c.Name)
		}
		out.Add(cc.FromCQ(c.Name, upperVars(body), c.P))
	}
	return textq.FormatConstraints(out)
}
