package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/textq"
)

// registerCRM registers the Example 2.1 CRM context on a server.
func registerCRM(t *testing.T, s *Server) {
	t.Helper()
	if _, err := s.Catalog().Register("crm", textq.ProblemSource{
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		Master:        exMaster,
		Constraints:   exConstraints,
	}); err != nil {
		t.Fatal(err)
	}
}

// incompleteQuery matches no supported customer in area 973, so the
// CRM DB misses a legal extension answer and RCDP says incomplete.
const incompleteQuery = `Q2(C) :- Supt(E, D, C), Cust(C, N, CC, A, P), CC = 01, A = 973`

// postBatch sends a BatchRequest and decodes the JSONL stream.
func postBatch(t *testing.T, url string, req BatchRequest) (int, []BatchLine) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Fatalf("batch Content-Type = %q", ct)
	}
	var lines []BatchLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line BatchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lines
}

// TestBatchStream: a batch against a catalog streams one line per
// query in submission order, each verdict matching what the single
// endpoint answers, with parse failures as in-stream error lines.
func TestBatchStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerCRM(t, s)
	queries := []string{exQuery, incompleteQuery, "Nope(", exQuery}
	code, lines := postBatch(t, ts.URL, BatchRequest{
		Catalog: "crm",
		DB:      exDB,
		Queries: queries,
	})
	if code != http.StatusOK || len(lines) != len(queries) {
		t.Fatalf("status %d, %d lines, want 200/%d", code, len(lines), len(queries))
	}
	for i, line := range lines {
		if line.Index != i {
			t.Fatalf("line %d has index %d (order broken)", i, line.Index)
		}
	}
	wantVerdicts := []string{"complete", "incomplete", "", "complete"}
	for i, want := range wantVerdicts {
		if want == "" {
			if lines[i].Error == "" || lines[i].Response != nil {
				t.Errorf("line %d: want an error line, got %+v", i, lines[i])
			}
			continue
		}
		if lines[i].Response == nil || lines[i].Response.Verdict != want {
			t.Errorf("line %d: want verdict %q, got %+v", i, want, lines[i])
		}
	}
	// Per-item request ids derive from the batch id.
	if got := lines[0].Response.RequestID; !strings.HasSuffix(got, ".0") {
		t.Errorf("item request id %q should end in .0", got)
	}
	// Each batch item answers exactly like the single endpoint.
	var single CheckResponse
	if code := post(t, ts.URL+"/v1/rcdp", CheckRequest{Catalog: "crm", DB: exDB, Query: incompleteQuery}, &single); code != http.StatusOK {
		t.Fatalf("single check status %d", code)
	}
	b := lines[1].Response
	if b.Verdict != single.Verdict || b.Extension != single.Extension ||
		fmt.Sprint(b.NewTuple) != fmt.Sprint(single.NewTuple) {
		t.Errorf("batch item diverges from single endpoint:\nbatch  %+v\nsingle %+v", b, single)
	}
}

// TestBatchInlineAndEndpoints: the inline (catalog-free) path works,
// Endpoint selects the check kind, and bad requests fail whole.
func TestBatchInlineAndEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inline := BatchRequest{
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		DB:            exDB,
		Master:        exMaster,
		Constraints:   exConstraints,
		Endpoint:      "rcqp",
		Queries:       []string{exQuery},
	}
	code, lines := postBatch(t, ts.URL, inline)
	if code != http.StatusOK || len(lines) != 1 || lines[0].Response == nil || lines[0].Response.Verdict != "yes" {
		t.Fatalf("rcqp batch: status %d lines %+v", code, lines)
	}
	// Unknown endpoint and empty query list are request-level errors.
	bad := inline
	bad.Endpoint = "nope"
	if code, _ := postBatch(t, ts.URL, bad); code != http.StatusBadRequest {
		t.Fatalf("unknown endpoint: status %d", code)
	}
	bad = inline
	bad.Queries = nil
	if code, _ := postBatch(t, ts.URL, bad); code != http.StatusBadRequest {
		t.Fatalf("no queries: status %d", code)
	}
}

// TestRouterForwarding: the router forwards checks to ring-picked
// backends, broadcasts catalog registrations, reports backend health
// and drains with Retry-After.
func TestRouterForwarding(t *testing.T) {
	// Backends without catalogs: the router's broadcast registers them.
	b1, ts1 := newTestServer(t, Config{})
	b2, ts2 := newTestServer(t, Config{})
	rt, err := NewRouter(RouterConfig{Backends: []string{ts1.URL, ts2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Catalog broadcast: every backend holds the entry afterwards.
	reg := CatalogRequest{
		Name:          "crm",
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		Master:        exMaster,
		Constraints:   exConstraints,
	}
	var info CatalogInfo
	if code := post(t, front.URL+"/v1/catalog", reg, &info); code != http.StatusCreated || info.Name != "crm" {
		t.Fatalf("broadcast register: status %d info %+v", code, info)
	}
	if b1.Catalog().Get("crm") == nil || b2.Catalog().Get("crm") == nil {
		t.Fatal("catalog broadcast did not reach every backend")
	}
	// The fan-in listing reports the entry once.
	resp, err := http.Get(front.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var infos []CatalogInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "crm" {
		t.Fatalf("fan-in listing %+v", infos)
	}

	// Routed checks answer exactly like a direct backend.
	req := CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}
	var direct, routed CheckResponse
	if code := post(t, ts1.URL+"/v1/rcdp", req, &direct); code != http.StatusOK {
		t.Fatalf("direct: status %d", code)
	}
	for i := 0; i < 3; i++ {
		if code := post(t, front.URL+"/v1/rcdp", req, &routed); code != http.StatusOK {
			t.Fatalf("routed: status %d", code)
		}
		if routed.Verdict != direct.Verdict || routed.Reason != direct.Reason {
			t.Fatalf("routed %+v != direct %+v", routed, direct)
		}
	}
	// Same catalog key, same backend every time: one backend carries
	// all 3 check forwards (+1 broadcast each), the other only the
	// broadcast.
	f1 := rt.health[0].forwards.Load()
	f2 := rt.health[1].forwards.Load()
	if !(f1 == 4 && f2 == 1) && !(f1 == 1 && f2 == 4) {
		t.Errorf("ring did not pin the catalog to one backend: forwards %d/%d", f1, f2)
	}

	// Batch streams through the router.
	code, lines := postBatch(t, front.URL, BatchRequest{
		Catalog: "crm", DB: exDB, Queries: []string{exQuery, incompleteQuery},
	})
	if code != http.StatusOK || len(lines) != 2 || lines[0].Response.Verdict != "complete" || lines[1].Response.Verdict != "incomplete" {
		t.Fatalf("routed batch: status %d lines %+v", code, lines)
	}

	// Health: both backends ready, ledgers populated.
	resp, err = http.Get(front.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	var statuses []BackendStatus
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(statuses) != 2 || !statuses[0].Ready || !statuses[1].Ready {
		t.Fatalf("backend health %+v", statuses)
	}

	// Drain: new requests get 503 with Retry-After.
	go func() { _ = rt.Drain(context.Background()) }()
	waitFor(t, "router draining", rt.Draining)
	hr, err := http.Post(front.URL+"/v1/rcdp", "application/json", bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || hr.Header.Get("Retry-After") == "" {
		t.Fatalf("draining router: status %d Retry-After %q", hr.StatusCode, hr.Header.Get("Retry-After"))
	}
}

// TestRouterRequestIDs: one id names a request on both hops. Broadcast
// and forwarded legs carry the router's X-Request-Id, the backend adopts
// it, and a routed check reports it as X-Backend-Request-Id and in the
// body; a malformed incoming id is not adopted.
func TestRouterRequestIDs(t *testing.T) {
	b := New(Config{})
	var mu sync.Mutex
	legs := map[string]string{} // backend path -> X-Request-Id of its last leg
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		legs[r.URL.Path] = r.Header.Get("X-Request-Id")
		mu.Unlock()
		b.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	rt, err := NewRouter(RouterConfig{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	send := func(url string, body any, id string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(mustJSON(t, body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := send(front.URL+"/v1/catalog", CatalogRequest{
		Name: "crm", Schemas: exSchemas, MasterSchemas: exMasterSchemas,
		Master: exMaster, Constraints: exConstraints,
	}, "")
	resp.Body.Close()
	mu.Lock()
	leg := legs["/v1/catalog"]
	mu.Unlock()
	if resp.StatusCode != http.StatusCreated || leg == "" || leg != resp.Header.Get("X-Request-Id") {
		t.Fatalf("broadcast: status %d, router id %q, backend leg id %q", resp.StatusCode, resp.Header.Get("X-Request-Id"), leg)
	}

	resp = send(front.URL+"/v1/rcdp", CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}, "")
	var cr CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if resp.StatusCode != http.StatusOK || id == "" || resp.Header.Get("X-Backend-Request-Id") != id || cr.RequestID != id {
		t.Fatalf("routed check: status %d, X-Request-Id %q, X-Backend-Request-Id %q, body request_id %q",
			resp.StatusCode, id, resp.Header.Get("X-Backend-Request-Id"), cr.RequestID)
	}

	// Directly at the backend: a well-formed id is adopted, a malformed
	// or oversized one is replaced by a minted id.
	for _, tc := range []struct {
		id    string
		adopt bool
	}{
		{"client-7.a_B", true},
		{"bad id", false},
		{"<script>", false},
		{strings.Repeat("x", 65), false},
	} {
		resp := send(ts.URL+"/v1/rcdp", CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}, tc.id)
		resp.Body.Close()
		got := resp.Header.Get("X-Request-Id")
		if adopted := got == tc.id; adopted != tc.adopt || got == "" {
			t.Errorf("incoming id %q: backend answered with %q (adopt=%v)", tc.id, got, tc.adopt)
		}
	}
}

// TestRouterEjectOnFailure: a dead backend fails its forward with 502
// and is ejected from the routing rotation — no blind resend; the next
// request is refused without touching the wire until a reprobe heals
// the backend.
func TestRouterEjectOnFailure(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore
	rt, err := NewRouter(RouterConfig{Backends: []string{deadURL}, ReprobeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	req := CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}
	var eresp ErrorResponse
	if code := post(t, front.URL+"/v1/rcdp", req, &eresp); code != http.StatusBadGateway {
		t.Fatalf("dead backend: status %d, want 502", code)
	}
	if rt.health[0].retries.Load() != 0 || rt.health[0].failures.Load() != 1 {
		t.Errorf("ledger retries=%d failures=%d, want 0/1",
			rt.health[0].retries.Load(), rt.health[0].failures.Load())
	}
	if !rt.health[0].ejected.Load() {
		t.Error("failed backend not ejected")
	}
	// The next request finds an empty rotation (the hour-long reprobe
	// interval keeps the ejected backend out) and never dials out.
	forwardsBefore := rt.health[0].forwards.Load()
	if code := post(t, front.URL+"/v1/rcdp", req, &eresp); code != http.StatusBadGateway {
		t.Fatalf("empty rotation: status %d, want 502", code)
	}
	if got := rt.health[0].forwards.Load(); got != forwardsBefore {
		t.Errorf("ejected backend was dialed: forwards %d -> %d", forwardsBefore, got)
	}
	// Health reports the backend not ready and ejected.
	resp, err := http.Get(front.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	var statuses []BackendStatus
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(statuses) != 1 || statuses[0].Ready || statuses[0].State != "ejected" {
		t.Fatalf("dead backend status: %+v", statuses)
	}
}

// TestRouterCatalogResync: a backend unreachable during catalog
// broadcasts falls behind, and the health sweep replays the missed
// registrations and mutations once it probes ready again — a rejoined
// backend converges to the same catalog state without operator
// intervention.
func TestRouterCatalogResync(t *testing.T) {
	b1, ts1 := newTestServer(t, Config{})
	// Backend 2 sits behind a kill switch: while down, every request's
	// connection is closed without a response, which the router treats
	// as an unreachable backend (not an HTTP refusal).
	s2 := New(Config{})
	var down atomic.Bool
	var mu sync.Mutex
	var replayIDs []string // X-Request-Id of each POST leg backend 2 served
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !down.Load() && r.Method == http.MethodPost {
			mu.Lock()
			replayIDs = append(replayIDs, r.Header.Get("X-Request-Id"))
			mu.Unlock()
		}
		if down.Load() {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("test server does not support hijacking")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		s2.Handler().ServeHTTP(w, r)
	}))
	defer ts2.Close()
	rt, err := NewRouter(RouterConfig{Backends: []string{ts1.URL, ts2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Register a maintained catalog and mutate it while backend 2 is
	// unreachable: the router tolerates the partial broadcast.
	down.Store(true)
	var info CatalogInfo
	if code := post(t, front.URL+"/v1/catalog", CatalogRequest{
		Name:          "crm",
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		DB:            exDB,
		Master:        exMaster,
		Constraints:   exConstraints,
		Queries:       []string{exQuery, incompleteQuery},
	}, &info); code != http.StatusCreated {
		t.Fatalf("register with one backend down: status %d", code)
	}
	var mr MutationResponse
	if code := post(t, front.URL+"/v1/catalog/crm/insert", MutationRequest{
		Facts: "Supt(e1, sales, c2).",
	}, &mr); code != http.StatusOK || mr.Rechecked != 2 {
		t.Fatalf("mutate with one backend down: status %d %+v", code, mr)
	}
	if b1.Catalog().Get("crm") == nil {
		t.Fatal("live backend missed the broadcast")
	}
	if s2.Catalog().Get("crm") != nil {
		t.Fatal("down backend received the broadcast")
	}

	statuses := getBackends(t, front.URL)
	if statuses[1].Ready || statuses[1].Pending != 2 {
		t.Fatalf("down backend status %+v, want not ready with 2 pending", statuses[1])
	}
	forwardsBefore := rt.health[1].forwards.Load()

	// Backend 2 comes back: the next health sweep replays both missed
	// entries, without counting them as client forwards.
	down.Store(false)
	statuses = getBackends(t, front.URL)
	if !statuses[1].Ready || statuses[1].Pending != 0 {
		t.Fatalf("rejoined backend status %+v, want ready with 0 pending", statuses[1])
	}
	if got := rt.health[1].forwards.Load(); got != forwardsBefore {
		t.Errorf("sync counted as forwards: %d -> %d", forwardsBefore, got)
	}
	if s2.Catalog().Get("crm") == nil {
		t.Fatal("rejoined backend did not receive the catalog")
	}
	// Each replay leg carries its own freshly minted router id.
	mu.Lock()
	ids := append([]string(nil), replayIDs...)
	mu.Unlock()
	if len(ids) != 2 || ids[0] == "" || ids[1] == "" || ids[0] == ids[1] {
		t.Errorf("replay legs carried ids %q, want 2 distinct minted ids", ids)
	}
	_, vr := getVerdicts(t, ts2.URL+"/v1/catalog/crm/verdicts")
	if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "complete" {
		t.Fatalf("rejoined backend Q2 = %+v, want complete (mutation replayed)", v)
	}

	// With both backends current, a routed mutation reaches both and a
	// routed verdicts read answers from the ring-picked copy.
	if code := post(t, front.URL+"/v1/catalog/crm/delete", MutationRequest{
		Facts: "Supt(e1, sales, c2).",
	}, &mr); code != http.StatusOK || mr.Deleted != 1 {
		t.Fatalf("routed delete: status %d %+v", code, mr)
	}
	for i, base := range []string{ts1.URL, ts2.URL, front.URL} {
		_, vr := getVerdicts(t, base+"/v1/catalog/crm/verdicts")
		if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "incomplete" {
			t.Fatalf("copy %d: Q2 = %+v, want incomplete after routed delete", i, v)
		}
	}
}

// getBackends fetches and decodes GET /v1/backends.
func getBackends(t *testing.T, frontURL string) []BackendStatus {
	t.Helper()
	resp, err := http.Get(frontURL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statuses []BackendStatus
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	return statuses
}

// killableBackends starts n backend servers, each behind a kill switch:
// while downs[i] is set, backend i closes every connection without a
// response, which the router treats as an unreachable backend.
func killableBackends(t *testing.T, n int) ([]string, []atomic.Bool) {
	t.Helper()
	downs := make([]atomic.Bool, n)
	urls := make([]string, n)
	for i := range urls {
		s := New(Config{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if downs[i].Load() {
				hj, ok := w.(http.Hijacker)
				if !ok {
					t.Error("test server does not support hijacking")
					return
				}
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
				}
				return
			}
			s.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls, downs
}

// TestRouterRingEjectionFailover: a connection failure ejects the
// primary backend from the rotation, routed traffic deterministically
// fails over to the next ring candidate without a blind resend, and
// the health sweep re-admits the backend once it probes ready with a
// healed replay log.
func TestRouterRingEjectionFailover(t *testing.T) {
	// Both backends sit behind kill switches so the test can kill
	// whichever one the ring makes primary for the catalog key.
	urls, downs := killableBackends(t, 2)
	rt, err := NewRouter(RouterConfig{Backends: urls, ReprobeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	var info CatalogInfo
	if code := post(t, front.URL+"/v1/catalog", CatalogRequest{
		Name:          "crm",
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		DB:            exDB,
		Master:        exMaster,
		Constraints:   exConstraints,
	}, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}

	order := rt.candidates("crm")
	primary, standby := order[0], order[1]
	req := CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}

	// Kill the primary: the routed check still succeeds — the forward
	// fails once, ejects the primary and fails over to the standby.
	downs[primary].Store(true)
	var resp CheckResponse
	if code := post(t, front.URL+"/v1/rcdp", req, &resp); code != http.StatusOK {
		t.Fatalf("failover check: status %d, resp %+v", code, resp)
	}
	if resp.Verdict != "complete" {
		t.Fatalf("failover verdict %q, want complete", resp.Verdict)
	}
	if !rt.health[primary].ejected.Load() {
		t.Fatal("primary not ejected after connection failure")
	}
	if rt.health[standby].retries.Load() == 0 {
		t.Error("standby did not record the failover")
	}

	// While ejected (and the reprobe interval far away), routed checks
	// skip the primary entirely: no dial, straight to the standby.
	primaryForwards := rt.health[primary].forwards.Load()
	if code := post(t, front.URL+"/v1/rcdp", req, &resp); code != http.StatusOK {
		t.Fatalf("ejected-primary check: status %d", code)
	}
	if got := rt.health[primary].forwards.Load(); got != primaryForwards {
		t.Errorf("ejected primary was dialed: forwards %d -> %d", primaryForwards, got)
	}
	statuses := getBackends(t, front.URL)
	if statuses[primary].State != "ejected" || statuses[standby].State != "healthy" {
		t.Fatalf("states %q/%q, want ejected/healthy",
			statuses[primary].State, statuses[standby].State)
	}

	// Revive the primary: the health sweep probes it ready, heals the
	// replay log (the registration broadcast it missed nothing of) and
	// re-admits it; routed traffic returns to the primary.
	downs[primary].Store(false)
	statuses = getBackends(t, front.URL)
	if statuses[primary].State != "healthy" || statuses[primary].Pending != 0 {
		t.Fatalf("revived primary status %+v, want healthy with 0 pending", statuses[primary])
	}
	primaryForwards = rt.health[primary].forwards.Load()
	if code := post(t, front.URL+"/v1/rcdp", req, &resp); code != http.StatusOK {
		t.Fatalf("post-heal check: status %d", code)
	}
	if got := rt.health[primary].forwards.Load(); got != primaryForwards+1 {
		t.Errorf("re-admitted primary not routed to: forwards %d -> %d", primaryForwards, got)
	}
}

// TestRouterEjectionHoldsForReprobeInterval: an ejected backend stays
// out of the routing rotation for the whole ReprobeInterval, even when
// it is already back up — the first routed request after the ejection
// must not reprobe and re-admit it. Only the /v1/backends sweep, which
// ignores the interval, brings it back early.
func TestRouterEjectionHoldsForReprobeInterval(t *testing.T) {
	urls, downs := killableBackends(t, 2)
	rt, err := NewRouter(RouterConfig{Backends: urls, ReprobeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	var info CatalogInfo
	if code := post(t, front.URL+"/v1/catalog", CatalogRequest{
		Name:          "crm",
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		DB:            exDB,
		Master:        exMaster,
		Constraints:   exConstraints,
	}, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	primary := rt.candidates("crm")[0]
	req := CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}

	downs[primary].Store(true)
	var resp CheckResponse
	if code := post(t, front.URL+"/v1/rcdp", req, &resp); code != http.StatusOK {
		t.Fatalf("failover check: status %d", code)
	}
	if !rt.health[primary].ejected.Load() {
		t.Fatal("primary not ejected after connection failure")
	}

	// Revive the primary and route one check straight away: the
	// interval has not passed, so the primary must not be dialed.
	downs[primary].Store(false)
	primaryForwards := rt.health[primary].forwards.Load()
	if code := post(t, front.URL+"/v1/rcdp", req, &resp); code != http.StatusOK || resp.Verdict != "complete" {
		t.Fatalf("check after revival: status %d verdict %q", code, resp.Verdict)
	}
	if got := rt.health[primary].forwards.Load(); got != primaryForwards {
		t.Errorf("ejected primary re-admitted before ReprobeInterval: forwards %d -> %d", primaryForwards, got)
	}
	if !rt.health[primary].ejected.Load() {
		t.Error("primary re-admitted by the routing path before ReprobeInterval")
	}

	// The health sweep ignores the interval and re-admits it.
	if statuses := getBackends(t, front.URL); statuses[primary].State != "healthy" {
		t.Fatalf("primary after sweep: %+v, want healthy", statuses[primary])
	}
}

// TestRouterVerdictsNoRotation: with every backend ejected, a routed
// verdicts read is refused with 502 instead of serving an ejected
// copy, which may have missed mutation broadcasts.
func TestRouterVerdictsNoRotation(t *testing.T) {
	urls, downs := killableBackends(t, 2)
	rt, err := NewRouter(RouterConfig{Backends: urls, ReprobeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	var info CatalogInfo
	if code := post(t, front.URL+"/v1/catalog", CatalogRequest{
		Name:          "crm",
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		DB:            exDB,
		Master:        exMaster,
		Constraints:   exConstraints,
		Queries:       []string{exQuery, incompleteQuery},
	}, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	order := rt.candidates("crm")
	primary, standby := order[0], order[1]

	// The primary misses the insert that flips Q2 to complete and is
	// ejected; a verdicts read fails over to the standby, which has it.
	// The ejection starts the primary's hour-long reprobe interval.
	downs[primary].Store(true)
	var mr MutationResponse
	if code := post(t, front.URL+"/v1/catalog/crm/insert", MutationRequest{
		Facts: "Supt(e1, sales, c2).",
	}, &mr); code != http.StatusOK || mr.Rechecked != 2 {
		t.Fatalf("insert with the primary down: status %d %+v", code, mr)
	}
	if _, vr := getVerdicts(t, front.URL+"/v1/catalog/crm/verdicts"); verdictOf(t, vr, incompleteQuery).Verdict != "complete" {
		t.Fatalf("routed Q2 = %+v, want complete from the standby", verdictOf(t, vr, incompleteQuery))
	}

	// The primary comes back with its stale copy, still out of rotation;
	// then the standby fails a routed check and is ejected too.
	downs[primary].Store(false)
	downs[standby].Store(true)
	var eresp ErrorResponse
	req := CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}
	if code := post(t, front.URL+"/v1/rcdp", req, &eresp); code != http.StatusBadGateway {
		t.Fatalf("check with both backends out: status %d, want 502", code)
	}
	if !rt.health[primary].ejected.Load() || !rt.health[standby].ejected.Load() {
		t.Fatal("want both backends ejected")
	}
	if _, vr := getVerdicts(t, urls[primary]+"/v1/catalog/crm/verdicts"); verdictOf(t, vr, incompleteQuery).Verdict != "incomplete" {
		t.Fatalf("primary Q2 = %+v, want its stale incomplete", verdictOf(t, vr, incompleteQuery))
	}
	if code, _ := getVerdicts(t, front.URL+"/v1/catalog/crm/verdicts"); code != http.StatusBadGateway {
		t.Fatalf("verdicts with no backend in rotation: status %d, want 502", code)
	}
}
