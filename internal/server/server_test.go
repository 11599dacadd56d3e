package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/textq"
)

// The Example 2.1 CRM problem in text form (the quickstart instance):
// e0 supports the only area-908 domestic customer, so D is complete
// for Q1.
const (
	exSchemas = `
rel Cust(cid, name, cc, ac, phn)
rel Supt(eid, dept, cid)
rel Manage(eid1, eid2)
`
	exMasterSchemas = `rel DCust(cid, name, ac, phn)`
	exMaster        = `
DCust(c1, Ann, 908, 5550001).
DCust(c2, Bob, 973, 5550002).
`
	exDB = `
Cust(c1, Ann, 01, 908, 5550001).
Cust(c2, Bob, 01, 973, 5550002).
Supt(e0, sales, c1).
`
	exConstraints = `cc phi0(C, A) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01 <= DCust[0, 2]`
	exQuery       = `Q1(C) :- Supt(E, D, C), Cust(C, N, CC, A, P), E = e0, CC = 01, A = 908`
)

func inlineRequest() CheckRequest {
	return CheckRequest{
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		DB:            exDB,
		Master:        exMaster,
		Constraints:   exConstraints,
		Query:         exQuery,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends body as JSON and decodes the response into out (a pointer
// to CheckResponse or ErrorResponse), returning the status code.
func post(t *testing.T, url string, body any, out any) int {
	t.Helper()
	code, err := tryPost(url, body, out)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// tryPost is post for goroutines other than the test's own: it returns
// failures instead of stopping the test.
func tryPost(url string, body any, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("status %d: bad response %q: %v", resp.StatusCode, raw, err)
		}
	}
	return resp.StatusCode, nil
}

func TestRCDPInline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp CheckResponse
	if code := post(t, ts.URL+"/v1/rcdp", inlineRequest(), &resp); code != http.StatusOK {
		t.Fatalf("status %d, resp %+v", code, resp)
	}
	if resp.Verdict != "complete" || resp.Reason != "" {
		t.Fatalf("verdict %q reason %q, want complete", resp.Verdict, resp.Reason)
	}
	if resp.Stats == nil || resp.Stats.Valuations == 0 {
		t.Fatalf("stats missing: %+v", resp.Stats)
	}
	if resp.RequestID == "" {
		t.Fatal("request id missing")
	}
}

func TestRCDPInlineIncomplete(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := inlineRequest()
	// Without the c1 rows, adding the master-consistent customer c1
	// plus a support edge legally changes the answer.
	req.DB = `Cust(c2, Bob, 01, 973, 5550002).`
	var resp CheckResponse
	if code := post(t, ts.URL+"/v1/rcdp", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d, resp %+v", code, resp)
	}
	if resp.Verdict != "incomplete" {
		t.Fatalf("verdict %q, want incomplete", resp.Verdict)
	}
	if resp.Extension == "" || len(resp.NewTuple) != 1 {
		t.Fatalf("witness missing: ext %q new %v", resp.Extension, resp.NewTuple)
	}
	// The extension must parse back as facts over the schemas.
	schemas, err := textq.ParseSchemas(req.Schemas)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := textq.ParseFacts(resp.Extension, schemas); err != nil {
		t.Fatalf("extension does not round-trip: %v\n%s", err, resp.Extension)
	}
}

func TestRCQPInline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp CheckResponse
	if code := post(t, ts.URL+"/v1/rcqp", inlineRequest(), &resp); code != http.StatusOK {
		t.Fatalf("status %d, resp %+v", code, resp)
	}
	if resp.Verdict != "yes" || resp.Method == "" {
		t.Fatalf("verdict %q method %q, want yes", resp.Verdict, resp.Method)
	}
}

// smallRequest is a Manage-only problem whose bounded tuple pool stays
// tiny (the 5-ary Cust schema of the CRM problem exceeds the default
// pool cap once fresh values multiply out).
func smallRequest() CheckRequest {
	return CheckRequest{
		Schemas:       `rel Manage(eid1, eid2)`,
		MasterSchemas: `rel ManageM(eid1, eid2)`,
		Master:        `ManageM(e1, e0).`,
		DB:            `Manage(e1, e0).`,
		Constraints:   `cc m(X, Y) :- Manage(X, Y) <= ManageM[0, 1]`,
		Query:         `Q(X) :- Manage(X, Y)`,
	}
}

func TestBoundedInline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := smallRequest()
	req.MaxAdd = 1
	var resp CheckResponse
	if code := post(t, ts.URL+"/v1/bounded", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d, resp %+v", code, resp)
	}
	if resp.Verdict != "complete" || resp.MaxAdd != 1 {
		t.Fatalf("verdict %q max_add %d, want complete/1", resp.Verdict, resp.MaxAdd)
	}
}

func TestUndecidableFragmentRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fpQuery := `
output Q
Q(X) :- Manage(X, Y)
Q(X) :- Manage(X, Z), Q(Z)
`
	req := inlineRequest()
	req.Query = fpQuery
	for _, ep := range []string{"/v1/rcdp", "/v1/rcqp"} {
		var resp ErrorResponse
		if code := post(t, ts.URL+ep, req, &resp); code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422 (%+v)", ep, code, resp)
		}
		if !strings.Contains(resp.Error, "/v1/bounded") {
			t.Fatalf("%s: error %q should point at /v1/bounded", ep, resp.Error)
		}
	}
	// The bounded endpoint takes the FP query.
	small := smallRequest()
	small.Query = fpQuery
	var resp CheckResponse
	if code := post(t, ts.URL+"/v1/bounded", small, &resp); code != http.StatusOK {
		t.Fatalf("bounded: status %d (%+v)", code, resp)
	}
	if resp.Verdict == "" {
		t.Fatal("bounded: verdict missing")
	}
}

func TestCatalogLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reg := CatalogRequest{
		Name:          "crm",
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		Master:        exMaster,
		Constraints:   exConstraints,
	}
	var info CatalogInfo
	if code := post(t, ts.URL+"/v1/catalog", reg, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d (%+v)", code, info)
	}
	if info.Name != "crm" || info.MasterTuples != 2 || info.Constraints != 1 {
		t.Fatalf("info %+v", info)
	}
	// Duplicate registration is refused.
	if code := post(t, ts.URL+"/v1/catalog", reg, nil); code != http.StatusConflict {
		t.Fatalf("duplicate register: status %d, want 409", code)
	}
	// Listing shows the entry.
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var infos []CatalogInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "crm" {
		t.Fatalf("list %+v", infos)
	}

	// Checks referencing the catalog carry only DB facts and a query.
	check := CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}
	var out CheckResponse
	if code := post(t, ts.URL+"/v1/rcdp", check, &out); code != http.StatusOK {
		t.Fatalf("catalog check: status %d (%+v)", code, out)
	}
	if out.Verdict != "complete" {
		t.Fatalf("catalog check verdict %q", out.Verdict)
	}

	// Unknown catalog: 404. Catalog + inline master: 400.
	var errResp ErrorResponse
	if code := post(t, ts.URL+"/v1/rcdp", CheckRequest{Catalog: "nope", Query: exQuery}, &errResp); code != http.StatusNotFound {
		t.Fatalf("unknown catalog: status %d", code)
	}
	bad := check
	bad.Master = exMaster
	if code := post(t, ts.URL+"/v1/rcdp", bad, &errResp); code != http.StatusBadRequest {
		t.Fatalf("conflicting catalog+inline: status %d", code)
	}
}

func TestCatalogSharesCaches(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if _, err := s.Catalog().Register("crm", textq.ProblemSource{
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		Master:        exMaster,
		Constraints:   exConstraints,
	}); err != nil {
		t.Fatal(err)
	}
	check := CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}

	misses0 := obs.ServeQueryCache.Value("miss")
	hits0 := obs.ServeQueryCache.Value("hit")
	pdm0 := obs.PDmHits.Value()
	var out CheckResponse
	for i := 0; i < 3; i++ {
		if code := post(t, ts.URL+"/v1/rcdp", check, &out); code != http.StatusOK || out.Verdict != "complete" {
			t.Fatalf("request %d: status %d verdict %q", i, code, out.Verdict)
		}
	}
	if d := obs.ServeQueryCache.Value("miss") - misses0; d != 1 {
		t.Errorf("query cache misses = %d, want 1 (query parsed once)", d)
	}
	if d := obs.ServeQueryCache.Value("hit") - hits0; d != 2 {
		t.Errorf("query cache hits = %d, want 2", d)
	}
	if d := obs.PDmHits.Value() - pdm0; d <= 0 {
		t.Errorf("p(Dm) cache hits did not grow across the request stream (delta %d)", d)
	}
	if got := s.Catalog().Get("crm").CachedQueries(); got != 1 {
		t.Errorf("cached queries = %d, want 1", got)
	}
}

func TestBudgetCeilingClamped(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBudget: core.Budget{MaxJoinRows: 1}})
	req := inlineRequest()
	// The request asks for an effectively unlimited row budget; the
	// operator ceiling of one join row must win.
	req.Budget = &BudgetOverride{MaxJoinRows: 1 << 40}
	var resp CheckResponse
	if code := post(t, ts.URL+"/v1/rcdp", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d (%+v)", code, resp)
	}
	if resp.Verdict != "unknown" || resp.Reason != "join-rows" {
		t.Fatalf("verdict %q reason %q, want unknown/join-rows", resp.Verdict, resp.Reason)
	}
	// The gate charges rows in batches, so the counted rows may
	// slightly overshoot the ceiling; the verdict above is the clamp
	// proof, the stats just have to be reported.
	if resp.Stats == nil {
		t.Fatal("stats missing")
	}
}

func TestEffectiveBudget(t *testing.T) {
	s := New(Config{
		DefaultBudget: core.Budget{MaxJoinRows: 100},
		MaxBudget:     core.Budget{MaxJoinRows: 500, MaxValuations: 50},
	})
	// No override: default, clamped where the default is unset.
	b := s.effectiveBudget(nil)
	if b.MaxJoinRows != 100 || b.MaxValuations != 50 {
		t.Fatalf("default budget %+v", b)
	}
	// Override within the ceiling is honored; beyond it is clamped.
	b = s.effectiveBudget(&BudgetOverride{MaxJoinRows: 200, MaxValuations: 9999})
	if b.MaxJoinRows != 200 || b.MaxValuations != 50 {
		t.Fatalf("override budget %+v", b)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/rcdp", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	// Missing query.
	if code := post(t, ts.URL+"/v1/rcdp", CheckRequest{Schemas: exSchemas}, nil); code != http.StatusBadRequest {
		t.Fatalf("missing query: status %d", code)
	}
	// Unknown fields are rejected (catches schema drift in clients).
	resp, err = http.Post(ts.URL+"/v1/rcdp", "application/json", strings.NewReader(`{"quurry": "x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(ts.URL + "/v1/rcdp")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d", resp.StatusCode)
	}
	// Bad textq input names the part.
	var errResp ErrorResponse
	bad := inlineRequest()
	bad.DB = "Nope(x)."
	if code := post(t, ts.URL+"/v1/rcdp", bad, &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad db: status %d", code)
	}
	if !strings.Contains(errResp.Error, "db") {
		t.Fatalf("bad db error %q", errResp.Error)
	}
}

func TestHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
			t.Fatalf("%s = %d %q", path, resp.StatusCode, body)
		}
	}
}
