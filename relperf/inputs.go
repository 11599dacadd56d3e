package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/approx"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/mdm"
	"repro/internal/mine"
	"repro/internal/qlang"
	"repro/internal/reductions"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/server"
	"repro/internal/textq"
)

// Input generation. Everything a workload sends is built here from the
// seed alone, together with the expected answer of every request,
// computed once with direct library calls at Workers=1 (or, for the
// hardness reductions, with the independent propositional solvers in
// internal/sat). The server only ever sees the generated request bodies.

// crmConstraints is V of the CRM scenario in textq syntax: φ0 bounds
// supported domestic customers by master data, φ1 caps each employee at
// three supported customers.
const crmConstraints = "cc phi0(C, A) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01 <= DCust[0, 2]\n" +
	"cc phi1(E) :- Supt(E, D0, C0), Supt(E, D1, C1), Supt(E, D2, C2), Supt(E, D3, C3), " +
	"C0 != C1, C0 != C2, C0 != C3, C1 != C2, C1 != C3, C2 != C3 <= empty\n"

// areaCodes feeds the Q0 family; all occur in master data. (An area
// code outside master data makes Q0 complete, but proving that costs an
// exhaustive search ~30× longer than any other check here, which would
// swamp the request path this workload is about.)
var areaCodes = []string{"908", "973", "201", "609"}

func q0(ac string) string {
	return fmt.Sprintf("Q0(C) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01, A = %s", ac)
}

func q2(emp string) string { return fmt.Sprintf("Q2(C) :- Supt(E, D, C), E = %s", emp) }

// areaUnion is a UCQ with one disjunct per area code.
func areaUnion(head string, acs ...string) string {
	lines := make([]string, len(acs))
	for i, ac := range acs {
		lines[i] = fmt.Sprintf("%s(C) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01, A = %s", head, ac)
	}
	return strings.Join(lines, "\n")
}

// crmQueries is the serve-crm query set: Q0 over every area code
// (incomplete on the generated instances), Q2 for six employees
// (complete when the employee already supports the φ1 maximum of three), the 4-disjunct UCQ, and the ∃FO⁺ area query
// Cust ∧ Supt ∧ CC = 01 ∧ (A = 908 ∨ A = 973 ∨ A = 201) sent as its DNF
// expansion, because textq has no ∃FO⁺ syntax; the checker expands
// ∃FO⁺ queries into exactly this union before searching.
func crmQueries() []string {
	var qs []string
	for _, ac := range areaCodes {
		qs = append(qs, q0(ac))
	}
	for e := 0; e < 6; e++ {
		qs = append(qs, q2(fmt.Sprintf("e%02d", e)))
	}
	return append(qs, areaUnion("U", "908", "973", "201", "609"), areaUnion("F", "908", "973", "201"))
}

// crmConfig is the generator configuration of a CRM instance with the
// given number of master customers. Every D generated from one seed
// shares the same master data: Generate draws Dm before anything that
// depends on Completeness.
func crmConfig(seed int64, customers int, completeness float64) mdm.Config {
	return mdm.Config{
		Seed:                   seed,
		DomesticCustomers:      customers,
		InternationalCustomers: customers / 10,
		Employees:              customers / 10,
		SupportPerEmployee:     3,
		MaxSupport:             3,
		Completeness:           completeness,
		ManageDepth:            4,
	}
}

// crmContext is one catalog registration with its request-carried
// database variants, in wire form and parsed.
type crmContext struct {
	reg      server.CatalogRequest
	dbs      []string // request-carried D variants (textq facts)
	parsed   *textq.Problem
	parsedDB []*relation.Database
}

// newCRMContext generates one D per completeness level over shared
// master data. With resident set, the first D is also registered as the
// entry's resident database.
func newCRMContext(name string, seed int64, customers int, completeness []float64, resident bool) (*crmContext, error) {
	c := &crmContext{}
	var master string
	for _, f := range completeness {
		s := mdm.Generate(crmConfig(seed, customers, f))
		m := textq.FormatDatabase(s.Dm)
		if master != "" && m != master {
			return nil, fmt.Errorf("crm variants disagree on master data")
		}
		master = m
		c.dbs = append(c.dbs, textq.FormatDatabase(s.D))
	}
	c.reg = server.CatalogRequest{
		Name:          name,
		Schemas:       textq.FormatSchemas(mdm.Schemas()),
		MasterSchemas: textq.FormatSchemas(mdm.MasterSchemas()),
		Master:        master,
		Constraints:   crmConstraints,
	}
	if resident {
		c.reg.DB = c.dbs[0]
	}
	var err error
	if c.parsed, err = textq.ParseProblemData(c.source()); err != nil {
		return nil, err
	}
	for _, db := range c.dbs {
		d, err := textq.ParseFacts(db, c.parsed.Schemas)
		if err != nil {
			return nil, err
		}
		c.parsedDB = append(c.parsedDB, d)
	}
	return c, nil
}

func (c *crmContext) source() textq.ProblemSource {
	return textq.ProblemSource{
		Schemas:       c.reg.Schemas,
		MasterSchemas: c.reg.MasterSchemas,
		DB:            c.reg.DB,
		Master:        c.reg.Master,
		Constraints:   c.reg.Constraints,
	}
}

// domesticCustomers lists the ids of the domestic customers of the first
// D variant.
func (c *crmContext) domesticCustomers() []string {
	var out []string
	for _, t := range c.parsedDB[0].Instance(mdm.Cust).Tuples() {
		if t[2] == "01" {
			out = append(out, string(t[0]))
		}
	}
	return out
}

// factLines splits a textq fact list into its lines.
func factLines(src string) []string {
	var out []string
	for _, l := range strings.Split(src, "\n") {
		if l = strings.TrimSpace(l); l != "" {
			out = append(out, l)
		}
	}
	return out
}

// checkWant is the expected answer of one check: the verdict and, when
// the server runs the sequential engine, the exact witness head tuple.
type checkWant struct {
	verdict  string
	newTuple []string
}

// expectRCDP decides RCDP with the sequential library checker.
func expectRCDP(q qlang.Query, d, dm *relation.Database, v *cc.Set) (checkWant, error) {
	res, err := (&core.Checker{Workers: 1}).RCDPCtx(context.Background(), q, d, dm, v)
	if err != nil {
		return checkWant{}, err
	}
	w := checkWant{verdict: res.Verdict.String()}
	if res.Verdict == core.VerdictIncomplete {
		w.newTuple = tupleStrings(res.NewTuple)
	}
	return w, nil
}

func tupleStrings(t relation.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = string(v)
	}
	return out
}

// crmExpectations computes the expected answer of every (D variant,
// query) pair of c.
func crmExpectations(c *crmContext, queries []string) ([][]checkWant, error) {
	out := make([][]checkWant, len(c.dbs))
	for vi, d := range c.parsedDB {
		for _, src := range queries {
			q, err := textq.ParseQuery(src, c.parsed.Schemas)
			if err != nil {
				return nil, err
			}
			w, err := expectRCDP(q, d, c.parsed.Dm, c.parsed.V)
			if err != nil {
				return nil, err
			}
			out[vi] = append(out[vi], w)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Hardness reductions (hard-search)
// ---------------------------------------------------------------------

// randomCNF draws a 3-CNF with n variables and m clauses.
func randomCNF(rng *rand.Rand, n, m int) *sat.CNF {
	f := sat.NewCNF(n)
	for i := 0; i < m; i++ {
		cl := make(sat.Clause, 3)
		for j := range cl {
			l := sat.Literal(rng.Intn(n) + 1)
			if rng.Intn(2) == 0 {
				l = -l
			}
			cl[j] = l
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// masterSchemas collects the schemas of a master database.
func masterSchemas(dm *relation.Database) map[string]*relation.Schema {
	out := make(map[string]*relation.Schema)
	for _, n := range dm.Relations() {
		out[n] = dm.Schema(n)
	}
	return out
}

// forallExistsRequest renders the Theorem 3.6 reduction of a ∀X∃Y-3SAT
// instance as an inline /v1/rcdp body; D is complete iff ∀X∃Y φ holds.
func forallExistsRequest(phi *sat.CNF, nX int) (server.CheckRequest, string, error) {
	inst, err := reductions.ForallExistsToRCDP(phi, nX)
	if err != nil {
		return server.CheckRequest{}, "", err
	}
	cons, err := textqConstraints(inst.V)
	if err != nil {
		return server.CheckRequest{}, "", err
	}
	q, err := textqQuery(inst.Q)
	if err != nil {
		return server.CheckRequest{}, "", err
	}
	want := "incomplete"
	if sat.ForallExists(phi, nX) {
		want = "complete"
	}
	return server.CheckRequest{
		Schemas:       textq.FormatSchemas(inst.Schemas),
		MasterSchemas: textq.FormatSchemas(masterSchemas(inst.Dm)),
		DB:            textq.FormatDatabase(inst.D),
		Master:        textq.FormatDatabase(inst.Dm),
		Constraints:   cons,
		Query:         q,
	}, want, nil
}

// threeSATRequest renders the Theorem 4.5(1) reduction of a 3SAT
// instance as an inline /v1/rcqp body; the answer is "yes" (a complete
// database exists) iff φ is unsatisfiable.
func threeSATRequest(phi *sat.CNF) (server.CheckRequest, string, error) {
	inst, err := reductions.ThreeSATToRCQP(phi)
	if err != nil {
		return server.CheckRequest{}, "", err
	}
	cons, err := textqConstraints(inst.V)
	if err != nil {
		return server.CheckRequest{}, "", err
	}
	q, err := textqQuery(inst.Q)
	if err != nil {
		return server.CheckRequest{}, "", err
	}
	want := "yes"
	if _, ok := phi.Solve(); ok {
		want = "no"
	}
	return server.CheckRequest{
		Schemas:       textq.FormatSchemas(inst.Schemas),
		MasterSchemas: textq.FormatSchemas(masterSchemas(inst.Dm)),
		Master:        textq.FormatDatabase(inst.Dm),
		Constraints:   cons,
		Query:         q,
	}, want, nil
}

// ---------------------------------------------------------------------
// Analysis endpoints (analyze)
// ---------------------------------------------------------------------

// The expected answers of the analysis endpoints. Each compares as its
// JSON encoding, with result sets sorted.
type approxWant struct {
	Verdict         string
	Explored        int
	Certified       int
	Specializations []string
	Generalizations []string
}

type adviseWant struct {
	Verdict, Final string
	Flipped        bool
	Rounds         int
	Facts          []string
}

type mineWant struct {
	Constraints []string
	Enumerated  int
	Survivors   int
	Rejected    int
}

type degreeWant struct {
	Verdict         string
	Value           float64
	Exact           bool
	Candidates      int
	Counterexamples int
	CheckVerdict    string
}

func key(v any) string { return string(mustJSON(v)) }

// approxCandidates is the max_candidates every /v1/approximate request
// asks for: a fixed oracle budget, most of which each call spends, keeps
// one seed's data from setting the workload's pace.
const approxCandidates = 64

// serverApproxOptions mirrors what relserve hands internal/approx for
// the benchmark's requests: a sequential checker with no budget and the
// requested candidate budget (Advise ignores it).
func serverApproxOptions() approx.Options {
	return approx.Options{Checker: &core.Checker{Workers: 1}, MaxCandidates: approxCandidates}
}

func formatCQText(q qlang.Query) string {
	src, err := textq.FormatQuery(q)
	if err != nil {
		return q.String()
	}
	return strings.TrimRight(src, "\n")
}

func expectApprox(q qlang.Query, d, dm *relation.Database, v *cc.Set) (approxWant, error) {
	res, err := approx.Approximate(context.Background(), q, d, dm, v, serverApproxOptions())
	if err != nil {
		return approxWant{}, err
	}
	w := approxWant{Verdict: res.Verdict.String(), Explored: res.Explored, Certified: res.Certified}
	for _, s := range res.Specializations {
		w.Specializations = append(w.Specializations, formatCQText(qlang.FromCQ(s.Query)))
	}
	for _, g := range res.Generalizations {
		w.Generalizations = append(w.Generalizations, formatCQText(qlang.FromCQ(g.Query)))
	}
	sort.Strings(w.Specializations)
	sort.Strings(w.Generalizations)
	return w, nil
}

func expectAdvise(q qlang.Query, d, dm *relation.Database, v *cc.Set) (adviseWant, error) {
	adv, err := approx.Advise(context.Background(), q, d, dm, v, serverApproxOptions())
	if err != nil {
		return adviseWant{}, err
	}
	w := adviseWant{Verdict: adv.Verdict.String(), Final: adv.Final.String(), Flipped: adv.Flipped, Rounds: adv.Rounds}
	for _, it := range adv.Items {
		w.Facts = append(w.Facts, textq.FormatFact(it.Relation, it.Tuple))
	}
	return w, nil
}

// mineEvidence renders seeded mdm evidence pairs with saturated support
// (so the planted constraints validate) as an inline evidence document,
// and returns the pairs parsed back from it, which is what the server
// mines.
func mineEvidence(seed int64, pairs int) (string, []mine.Pair, error) {
	cfg := mdm.DefaultConfig()
	cfg.Seed = seed
	cfg.DomesticCustomers = 8
	cfg.InternationalCustomers = 3
	cfg.SaturateSupport = true
	cfg.UnregisteredDomestic = 2
	var ps []mine.Pair
	for _, s := range mdm.Evidence(cfg, pairs) {
		ps = append(ps, mine.Pair{D: s.D, Dm: s.Dm})
	}
	doc, err := mine.FormatEvidence(ps)
	if err != nil {
		return "", nil, err
	}
	parsed, err := mine.ParseEvidence(doc)
	return doc, parsed, err
}

// serverMineOptions mirrors relserve's defaults for /v1/mine.
func serverMineOptions() mine.Options { return mine.Options{MaxCandidates: 256, Workers: 1} }

func expectMine(pairs []mine.Pair) (mineWant, error) {
	res, err := mine.Mine(context.Background(), pairs, serverMineOptions())
	if err != nil {
		return mineWant{}, err
	}
	w := mineWant{Enumerated: res.Stats.Enumerated, Survivors: res.Stats.Survivors, Rejected: res.Stats.OracleRejected}
	for _, m := range res.Mined {
		src, err := textq.FormatConstraints(cc.NewSet(m.Constraint))
		if err != nil {
			return mineWant{}, err
		}
		w.Constraints = append(w.Constraints, strings.TrimRight(src, "\n"))
	}
	sort.Strings(w.Constraints)
	return w, nil
}

// degreeChecker mirrors relserve's degree path: DegreeCtx under the
// default 100000-valuation ceiling.
func degreeChecker() *core.Checker {
	return &core.Checker{Workers: 1, Budget: core.Budget{MaxValuations: 100000}}
}

// expectDegree computes the exact verdict and the degree.
func expectDegree(q qlang.Query, d, dm *relation.Database, v *cc.Set) (degreeWant, error) {
	check, err := expectRCDP(q, d, dm, v)
	if err != nil {
		return degreeWant{}, err
	}
	res, err := degreeChecker().DegreeCtx(context.Background(), q, d, dm, v)
	if err != nil {
		return degreeWant{}, err
	}
	return degreeWant{
		Verdict:         res.Verdict.String(),
		Value:           res.Degree,
		Exact:           res.Exact,
		Candidates:      res.Candidates,
		Counterexamples: res.Counterexamples,
		CheckVerdict:    check.verdict,
	}, nil
}
