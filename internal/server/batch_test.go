package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/textq"
)

// The CRM context of the batch differential test: Example 2.1 plus an
// inclusion dependency (every supported customer is a master customer),
// so both constraint shapes take part in partial closure.
const (
	diffSchemas     = exSchemas
	diffConstraints = exConstraints + "\ncc sup(C) :- Supt(E, D, C) <= DCust[0]"
)

// diffDBs are the D variants of the differential test. The last one
// supports a customer that is not in the master data, so it violates
// both constraints: every check over it must fail with the same error.
var diffDBs = []struct {
	name      string
	facts     string
	violating bool
}{
	{name: "base", facts: exDB},
	{name: "both-supported", facts: exDB + "Supt(e1, hr, c2).\n"},
	{name: "managed", facts: exDB + "Supt(e1, sales, c2).\nManage(e0, e1).\nManage(e1, e2).\n"},
	{name: "violating", facts: exDB + "Cust(c3, Cy, 01, 908, 5550003).\nSupt(e2, sales, c3).\n", violating: true},
}

// randomCRMQuery draws a CQ over Supt, optionally joined with Cust and
// Manage, with random constant selections and a random head.
func randomCRMQuery(rng *rand.Rand) string {
	atoms := []string{"Supt(E, D, C)"}
	vars := []string{"E", "D", "C"}
	if rng.Intn(3) > 0 {
		atoms = append(atoms, "Cust(C, N, CC, A, P)")
		vars = append(vars, "CC", "A")
	}
	if rng.Intn(3) == 0 {
		atoms = append(atoms, "Manage(M, E)")
		vars = append(vars, "M")
	}
	consts := map[string][]string{
		"E": {"e0", "e1", "e2"}, "D": {"sales", "hr"}, "C": {"c1", "c2"},
		"CC": {"01", "44"}, "A": {"908", "973"}, "M": {"e0", "e1"},
	}
	var sels []string
	for _, v := range vars {
		if rng.Intn(3) == 0 {
			cs := consts[v]
			sels = append(sels, v+" = "+cs[rng.Intn(len(cs))])
		}
	}
	// C is bounded by the master data through sup, so heads over C are
	// the ones D can be complete for.
	head := []string{"C"}
	if rng.Intn(2) == 0 {
		head[0] = vars[rng.Intn(len(vars))]
	}
	if w := vars[rng.Intn(len(vars))]; rng.Intn(2) == 0 && w != head[0] {
		head = append(head, w)
	}
	return fmt.Sprintf("Q(%s) :- %s", strings.Join(head, ", "), strings.Join(append(atoms, sels...), ", "))
}

// TestBatchMatchesSingleChecks is a differential test of the batch
// path: seeded random query sets over several D variants of a small
// CRM catalog go once as one /v1/batch and once as single /v1/rcdp
// calls, and every item must answer alike — verdict, reason, new
// tuple, extension and valuation count, or the same error text. The
// inline (catalog-free) batch path is held to the same answers, and a
// valuation budget stops some items while others decide.
func TestBatchMatchesSingleChecks(t *testing.T) {
	s, ts := newTestServer(t, Config{CheckWorkers: 1})
	if _, err := s.Catalog().Register("crm", textq.ProblemSource{
		Schemas:       diffSchemas,
		MasterSchemas: exMasterSchemas,
		Master:        exMaster,
		Constraints:   diffConstraints,
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var stopped, decided int
	for _, db := range diffDBs {
		queries := []string{exQuery}
		for len(queries) < 12 {
			queries = append(queries, randomCRMQuery(rng))
		}
		for _, budget := range []*BudgetOverride{nil, {MaxValuations: 2}} {
			name := db.name
			if budget != nil {
				name += "/max_valuations"
			}
			t.Run(name, func(t *testing.T) {
				inline := BatchRequest{
					Schemas: diffSchemas, MasterSchemas: exMasterSchemas,
					Master: exMaster, Constraints: diffConstraints,
				}
				for _, breq := range []BatchRequest{{Catalog: "crm"}, inline} {
					breq.DB, breq.Queries, breq.Budget = db.facts, queries, budget
					code, lines := postBatch(t, ts.URL, breq)
					if code != http.StatusOK || len(lines) != len(queries) {
						t.Fatalf("batch: status %d, %d lines, want 200/%d", code, len(lines), len(queries))
					}
					for i, q := range queries {
						var single CheckResponse
						var failed ErrorResponse
						req := CheckRequest{Catalog: "crm", DB: db.facts, Query: q, Budget: budget}
						code := post(t, ts.URL+"/v1/rcdp", req, &single)
						if code != http.StatusOK {
							post(t, ts.URL+"/v1/rcdp", req, &failed)
						}
						line := lines[i]
						if db.violating != (code != http.StatusOK) {
							t.Fatalf("%s: single check status %d (violating D: %v)", q, code, db.violating)
						}
						if code != http.StatusOK {
							if line.Error != failed.Error || line.Response != nil {
								t.Errorf("%s: batch line %+v, single error %q", q, line, failed.Error)
							}
							continue
						}
						b := line.Response
						if b == nil {
							t.Fatalf("%s: batch error %q, single verdict %q", q, line.Error, single.Verdict)
						}
						if b.Verdict != single.Verdict || b.Reason != single.Reason ||
							b.Extension != single.Extension ||
							fmt.Sprint(b.NewTuple) != fmt.Sprint(single.NewTuple) ||
							b.Stats.Valuations != single.Stats.Valuations {
							t.Errorf("%s: batch item diverges from single check:\nbatch  %+v %+v\nsingle %+v %+v",
								q, b, b.Stats, single, single.Stats)
						}
						if budget != nil && breq.Catalog != "" {
							if b.Reason == "valuations" {
								stopped++
							} else {
								decided++
							}
						}
					}
				}
			})
		}
	}
	if stopped == 0 || decided == 0 {
		t.Fatalf("max_valuations runs: %d items stopped, %d decided; want both", stopped, decided)
	}
}
