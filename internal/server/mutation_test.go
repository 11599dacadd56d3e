package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// registerMaintainedCRM registers the CRM context as a maintained
// entry over HTTP: resident DB facts plus two watched queries (Q1 is
// complete on the seed DB, Q2 incomplete — c2 is a legal 973-area
// answer the DB misses a support edge for).
func registerMaintainedCRM(t *testing.T, ts *httptest.Server) CatalogInfo {
	t.Helper()
	var info CatalogInfo
	code := post(t, ts.URL+"/v1/catalog", CatalogRequest{
		Name:          "crm",
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		DB:            exDB,
		Master:        exMaster,
		Constraints:   exConstraints,
		Queries:       []string{exQuery, incompleteQuery},
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("register status %d, info %+v", code, info)
	}
	if info.Watched != 2 || info.Version != 1 || info.DBTuples != 3 {
		t.Fatalf("register info %+v, want 2 watched, version 1, 3 db tuples", info)
	}
	return info
}

// getVerdicts fetches GET /v1/catalog/{name}/verdicts with raw query
// parameters appended to path.
func getVerdicts(t *testing.T, url string) (int, *VerdictsResponse) {
	t.Helper()
	code, vr, err := tryVerdicts(url)
	if err != nil {
		t.Fatal(err)
	}
	return code, vr
}

// tryVerdicts is getVerdicts for goroutines other than the test's own.
func tryVerdicts(url string) (int, *VerdictsResponse, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	var out VerdictsResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("status %d: bad verdicts body %q: %v", resp.StatusCode, raw, err)
	}
	return resp.StatusCode, &out, nil
}

// verdictOf picks one watched query's verdict out of a response.
func verdictOf(t *testing.T, vr *VerdictsResponse, query string) WatchedVerdict {
	t.Helper()
	for _, v := range vr.Verdicts {
		if v.Query == query {
			return v
		}
	}
	t.Fatalf("query %q not in verdicts %+v", query, vr.Verdicts)
	return WatchedVerdict{}
}

// TestMutationVerdictFlip: inserting the missing support edge into the
// resident DB flips the watched incomplete verdict to complete without
// a restart or a re-posted check — the mutate-smoke scenario.
func TestMutationVerdictFlip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMaintainedCRM(t, ts)

	_, vr := getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts")
	if v := verdictOf(t, vr, exQuery); v.Verdict != "complete" {
		t.Fatalf("seed Q1 = %+v, want complete", v)
	}
	if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "incomplete" || v.Extension == "" {
		t.Fatalf("seed Q2 = %+v, want incomplete with witness", v)
	}

	var mr MutationResponse
	code := post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{
		Facts: "Supt(e1, sales, c2).",
	}, &mr)
	if code != http.StatusOK {
		t.Fatalf("insert status %d: %+v", code, mr)
	}
	// A DB-side mutation fails the invisibility gate for every watched
	// query: both rerun cold, none reuse.
	if mr.Inserted != 1 || mr.Deleted != 0 || mr.Reused != 0 || mr.Rechecked != 2 || mr.Version != 2 {
		t.Fatalf("insert response %+v, want 1 inserted, 0 reused, 2 rechecked, version 2", mr)
	}

	_, vr = getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts")
	if vr.Version != 2 {
		t.Fatalf("version %d, want 2", vr.Version)
	}
	if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "complete" || v.Reused {
		t.Fatalf("post-insert Q2 = %+v, want complete (rechecked)", v)
	}

	// Deleting the edge flips it back: the incremental index patches
	// are exercised in both directions.
	code = post(t, ts.URL+"/v1/catalog/crm/delete", MutationRequest{
		Facts: "Supt(e1, sales, c2).",
	}, &mr)
	if code != http.StatusOK || mr.Deleted != 1 || mr.Version != 3 {
		t.Fatalf("delete status %d response %+v, want 1 deleted, version 3", code, mr)
	}
	_, vr = getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts")
	if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "incomplete" {
		t.Fatalf("post-delete Q2 = %+v, want incomplete again", v)
	}
}

// TestMutationMasterReuse: a master-side insert that stays inside the
// pre-batch projections and active domain passes the invisibility gate
// and reuses every cached verdict; one that brings new values forces
// cold rechecks.
func TestMutationMasterReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMaintainedCRM(t, ts)

	var mr MutationResponse
	code := post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{
		Target: "master",
		Facts:  "DCust(c1, Ann, 908, 5550001).",
	}, &mr)
	if code != http.StatusOK {
		t.Fatalf("duplicate master insert status %d: %+v", code, mr)
	}
	if mr.Inserted != 0 || mr.Reused != 2 || mr.Rechecked != 0 {
		t.Fatalf("duplicate master insert %+v, want 0 inserted, 2 reused, 0 rechecked", mr)
	}
	_, vr := getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts")
	if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "incomplete" || !v.Reused {
		t.Fatalf("reused Q2 = %+v, want incomplete with reused=true", v)
	}

	code = post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{
		Target: "master",
		Facts:  "DCust(c3, Carl, 908, 5550003).",
	}, &mr)
	if code != http.StatusOK {
		t.Fatalf("fresh master insert status %d: %+v", code, mr)
	}
	if mr.Inserted != 1 || mr.Reused != 0 || mr.Rechecked != 2 {
		t.Fatalf("fresh master insert %+v, want 1 inserted, 0 reused, 2 rechecked", mr)
	}
}

// TestVerdictsLongPoll: a poll parked on ?after=current wakes when a
// mutation bumps the version and sees the flipped verdict.
func TestVerdictsLongPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMaintainedCRM(t, ts)

	type polled struct {
		code int
		vr   *VerdictsResponse
	}
	done := make(chan polled, 1)
	go func() {
		code, vr := getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts?after=1&wait_ms=10000")
		done <- polled{code, vr}
	}()

	// The parked poll must not answer before the mutation.
	select {
	case p := <-done:
		t.Fatalf("poll answered before mutation: %+v", p.vr)
	case <-time.After(50 * time.Millisecond):
	}

	var mr MutationResponse
	if code := post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{
		Facts: "Supt(e1, sales, c2).",
	}, &mr); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}

	select {
	case p := <-done:
		if p.code != http.StatusOK || p.vr.Version != 2 {
			t.Fatalf("poll answered %d %+v, want version 2", p.code, p.vr)
		}
		if v := verdictOf(t, p.vr, incompleteQuery); v.Verdict != "complete" {
			t.Fatalf("polled Q2 = %+v, want complete", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll did not wake on mutation")
	}

	// An expired wait returns the unchanged state rather than hanging.
	code, vr := getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts?after=2&wait_ms=30")
	if code != http.StatusOK || vr.Version != 2 {
		t.Fatalf("timed-out poll: status %d version %d, want 200/2", code, vr.Version)
	}
}

// TestMutationValidation covers the refusal paths: unknown catalog,
// bad target, facts that do not parse, and unparseable watch queries
// rolling the registration back.
func TestMutationValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMaintainedCRM(t, ts)

	var er ErrorResponse
	if code := post(t, ts.URL+"/v1/catalog/nope/insert", MutationRequest{Facts: "Supt(e1, sales, c2)."}, &er); code != http.StatusNotFound {
		t.Fatalf("unknown catalog: status %d (%+v)", code, er)
	}
	if code := post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{Target: "dm", Facts: "x"}, &er); code != http.StatusBadRequest {
		t.Fatalf("bad target: status %d (%+v)", code, er)
	}
	if code := post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{Facts: "Nope("}, &er); code != http.StatusBadRequest {
		t.Fatalf("bad facts: status %d (%+v)", code, er)
	}

	var info CatalogInfo
	if code := post(t, ts.URL+"/v1/catalog", CatalogRequest{
		Name:    "broken",
		Schemas: exSchemas,
		Queries: []string{"Nope("},
	}, &info); code != http.StatusBadRequest {
		t.Fatalf("bad watch query: status %d", code)
	}
	if code, _ := getVerdicts(t, ts.URL+"/v1/catalog/broken/verdicts"); code != http.StatusNotFound {
		t.Fatalf("rolled-back entry still registered: status %d", code)
	}
}

// TestCatalogChecksDuringMutations races catalog-backed checks against
// mutations on the same entry: the entry lock serializes them, so
// every check sees a consistent snapshot (run with -race).
func TestCatalogChecksDuringMutations(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	registerMaintainedCRM(t, ts)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			var mr MutationResponse
			post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{
				Target: "master", Facts: "DCust(c1, Ann, 908, 5550001).",
			}, &mr)
		}
	}()
	for i := 0; i < 10; i++ {
		var resp CheckResponse
		code := post(t, ts.URL+"/v1/rcdp", CheckRequest{
			Catalog: "crm", DB: exDB, Query: exQuery,
		}, &resp)
		if code != http.StatusOK || resp.Verdict != "complete" {
			t.Fatalf("check %d: status %d verdict %q", i, code, resp.Verdict)
		}
	}
	<-done
}

// TestRequestFactsParseOutsideEntryLock holds a catalog entry's write
// lock, as a mutation does while it applies or publishes, and sends each
// request shape that carries its own facts for that entry with facts
// that do not parse. The facts are parsed before the entry's read lock
// is taken, so every request must be answered 400 while the writer
// still holds the lock.
func TestRequestFactsParseOutsideEntryLock(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	registerMaintainedCRM(t, ts)
	e := s.catalog.Get("crm")
	e.mu.Lock()
	defer e.mu.Unlock()
	bad := "Supt(e0, sales"
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/rcdp", CheckRequest{Catalog: "crm", DB: bad, Query: exQuery}},
		{"/v1/approximate", CheckRequest{Catalog: "crm", DB: bad, Query: exQuery}},
		{"/v1/batch", BatchRequest{Catalog: "crm", DB: bad, Queries: []string{exQuery}}},
		{"/v1/mine", MineRequest{Catalog: "crm", DBs: []string{bad}}},
	} {
		buf, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		status := make(chan int, 1)
		go func() {
			resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(buf))
			if err != nil {
				t.Error(err)
				status <- 0
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		select {
		case code := <-status:
			if code != http.StatusBadRequest {
				t.Fatalf("%s: status %d, want 400", c.path, code)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no answer while a writer holds the entry", c.path)
		}
	}
}
