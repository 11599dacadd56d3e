package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
)

// fuzzPaths are the POST endpoints whose JSON decoders FuzzDecoders
// drives; the fuzzer's first argument picks one.
var fuzzPaths = []string{"/v1/rcdp", "/v1/batch", "/v1/catalog/crm/insert", "/v1/mine"}

// fuzzServer returns a fresh server holding the example catalog "crm"
// with two watched queries, under a budget ceiling that keeps every
// request small whatever its body asks for. A fresh server per input
// keeps each input's outcome independent of the inputs before it.
func fuzzServer(t *testing.T) *Server {
	s := New(Config{MaxBudget: core.Budget{Timeout: 200 * time.Millisecond, MaxValuations: 2000}})
	body, err := json.Marshal(CatalogRequest{
		Name:          "crm",
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		DB:            exDB,
		Master:        exMaster,
		Constraints:   exConstraints,
		Queries:       []string{exQuery, incompleteQuery},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/catalog", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body)
	}
	return s
}

// decoderSeeds are request bodies for the endpoints of fuzzPaths,
// each with the index of its path: the seed corpus of FuzzDecoders,
// which FuzzDecodeBody reuses.
var decoderSeeds = []struct {
	path int
	body string
}{
	{0, `{"catalog":"crm","db":"Cust(c1, Ann, 01, 908, 5550001).\nSupt(e0, sales, c1).","query":"Q1(C) :- Supt(E, D, C), Cust(C, N, CC, A, P), E = e0, CC = 01, A = 908"}`},
	{0, `{"catalog":"crm","query":"Q(C) :- Supt(E, D, C)","degree":true,"budget":{"max_join_rows":5}}`},
	{0, `{"schemas":"rel R(a)","db":"R(1).","query":"Q(X) :- R(X)"}`},
	{1, `{"catalog":"crm","queries":["Q(C) :- Supt(E, D, C)","Q(","Q(X) :- Cust(X, N, CC, A, P)"],"endpoint":"rcqp"}`},
	{1, `{"catalog":"crm","queries":[]}`},
	{2, `{"facts":"Supt(e1, sales, c2)."}`},
	{2, `{"target":"master","facts":"DCust(c3, Eve, 908, 5550003)."}`},
	{2, `{"target":"dm","facts":""}`},
	{3, `{"catalog":"crm","dbs":["Cust(c1, Ann, 01, 908, 5550001).\nSupt(e0, sales, c1)."]}`},
	{3, `{"evidence":"== schemas\nrel R(a)\n== master-schemas\nrel M(a)\n== pair\n== db\nR(1).\n== dm\nM(1).\n"}`},
	{3, `{"evidence":"x","catalog":"crm"}`},
	{0, `{`},
	{1, `null`},
	{2, `[1,2]`},
	{3, `{"unknown":1}`},
}

// FuzzDecoders posts arbitrary bodies to the check, batch, mutation
// and mine endpoints. Whatever the body, the server must answer
// without panicking and with a 2xx or 4xx status (429 included): bad
// input is the client's error, never a 5xx.
func FuzzDecoders(f *testing.F) {
	for _, sd := range decoderSeeds {
		f.Add(uint8(sd.path), []byte(sd.body))
	}
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		s := fuzzServer(t)
		url := fuzzPaths[int(path)%len(fuzzPaths)]
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		if c := rec.Code; c < 200 || (c >= 300 && c < 400) || c >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", url, body, c, rec.Body)
		}
	})
}
