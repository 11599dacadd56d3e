package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// requestTypes are the types the server decodes request bodies into.
var requestTypes = []reflect.Type{
	reflect.TypeOf(CheckRequest{}),
	reflect.TypeOf(BatchRequest{}),
	reflect.TypeOf(ApproxRequest{}),
	reflect.TypeOf(AdviseRequest{}),
	reflect.TypeOf(MutationRequest{}),
	reflect.TypeOf(MineRequest{}),
	reflect.TypeOf(CatalogRequest{}),
}

// decodeEdgeSeeds are bodies at the edges of the accepted language,
// each with the index of its type in requestTypes.
var decodeEdgeSeeds = []struct {
	typ  int
	body string
}{
	// Leading whitespace; bytes after the first value are not read.
	{0, " \t\r\n{\"query\":\"q\"}"},
	{0, `{"query":"q"} trailing {garbage`},
	{0, `{"query":"q"}}`},
	{0, `null`},
	{0, `null trailing`},
	{0, `nullx`},
	{0, `nul`},
	{0, ``},
	{0, "  \n"},
	{0, `"query"`},
	{0, `[{"query":"q"}]`},
	{0, `12`},
	{0, `true`},
	// Key matching: exact first, then case-insensitive; the last
	// duplicate wins.
	{0, `{"QUERY":"a"}`},
	{0, `{"Query":"a","query":"b"}`},
	{0, `{"query":"a","QUERY":"b"}`},
	{0, `{"ſchemaſ":"long s"}`},
	{0, `{"budget":{"TIMEOUT_MS":5,"Max_Join_Rows":7}}`},
	{0, `{"budget":{"max_valuatıons":5}}`},
	{0, `{"budget":{"max_valuatİons":5}}`},
	{0, `{"qu\u0065ry":"escaped key"}`},
	{0, `{"QU\u0045RY":"escaped folded key"}`},
	{0, `{"query":"a","query":"b","query":"c"}`},
	{0, `{"budget":{"timeout_ms":1},"budget":{"max_valuations":2}}`},
	{1, `{"queries":["a","b"],"queries":["c"]}`},
	{1, `{"queries":["a","b"],"queries":["c"],"queries":["x",null]}`},
	{1, `{"queries":["a","b"],"queries":[],"queries":[null]}`},
	// null leaves a scalar unchanged and sets a pointer or slice to nil.
	{0, `{"query":"q","query":null,"degree":true,"degree":null,"max_add":3,"max_add":null}`},
	{0, `{"budget":{"max_join_rows":5},"budget":null}`},
	{1, `{"queries":["a"],"queries":null}`},
	{1, `{"queries":[null,"b",null]}`},
	{5, `{"dbs":null,"min_support":0.5,"min_support":null}`},
	// Escapes, surrogate pairs and invalid UTF-8.
	{0, `{"query":"\u00e9\ud83d\ude00 \ud800 \udc00x \ud800\u0041 \ud800\ud800 \/\b\f\n\r\t\"\\ \u0000"}`},
	{0, "{\"query\":\"a\xffb\xed\xa0\x80c\xe2\x82\"}"},
	{0, "{\"query\":\"caf\xc3\xa9 \xef\xbf\xbd\"}"},
	{0, "{\"qu\xffery\":\"x\"}"},
	{0, `{"query":"\u12"}`},
	{0, `{"query":"\x"}`},
	{0, "{\"query\":\"tab\there\"}"},
	{0, `{"query":"unterminated`},
	// Numbers: integer fields reject fractions, exponents and overflow.
	{0, `{"max_add":1.0}`},
	{0, `{"max_add":1e2}`},
	{0, `{"max_add":9223372036854775807}`},
	{0, `{"max_add":9223372036854775808}`},
	{0, `{"max_add":-0}`},
	{0, `{"max_add":-}`},
	{0, `{"max_add":01}`},
	{0, `{"max_add":"1"}`},
	{0, `{"budget":{"timeout_ms":-9223372036854775808,"max_tuples":1E1}}`},
	{5, `{"min_support":1e400}`},
	{5, `{"min_support":-0.5e-3,"min_confidence":1E+2}`},
	{5, `{"min_support":1.}`},
	// Wrong types, unknown keys and broken syntax.
	{0, `{"degree":"true"}`},
	{0, `{"degree":tru}`},
	{0, `{"query":["q"]}`},
	{0, `{"budget":[]}`},
	{0, `{"budget":{"unknown":1}}`},
	{0, `{"query":"q",}`},
	{0, `{"query" "q"}`},
	{0, `{"query":"q" "db":"x"}`},
	{0, `{"unknown":{"deep":[1,{"x":null}]}}`},
	{1, `{"queries":["a",1]}`},
	{1, `{"queries":["a",]}`},
	{1, `{"queries":{}}`},
	// Embedded structs: the check request's keys are promoted.
	{2, `{"catalog":"crm","query":"q","max_selections":3,"budget":{"max_join_rows":9}}`},
	{3, `{"max_rounds":2,"db":"x","Max_Rounds":4}`},
	{4, `{"target":"master","facts":"F(a)."}`},
	{6, `{"name":"crm","schemas":"rel R(a)","queries":["Q(X) :- R(X)"]}`},
}

// decodeAgainstJSON decodes body, read through a limit-byte
// MaxBytesReader, into a fresh value of type typ twice: with
// DecodeRequest and with encoding/json's Decoder with
// DisallowUnknownFields. It fails the test when one accepts and the other
// rejects, or when both accept with different values. A negative
// contentLength sends the body without one.
func decodeAgainstJSON(t *testing.T, typ reflect.Type, body []byte, limit, contentLength int64) {
	t.Helper()
	got := reflect.New(typ)
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	r.ContentLength = contentLength
	gotErr := DecodeRequest(httptest.NewRecorder(), r, limit, got.Interface())

	want := reflect.New(typ)
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	dec.DisallowUnknownFields()
	wantErr := dec.Decode(want.Interface())

	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s, limit %d, body %q: DecodeRequest error %v, encoding/json error %v", typ, limit, body, gotErr, wantErr)
	case gotErr == nil && !reflect.DeepEqual(got.Interface(), want.Interface()):
		t.Fatalf("%s, limit %d, body %q:\nDecodeRequest %#v\nencoding/json %#v", typ, limit, body, got.Elem(), want.Elem())
	}
}

// TestDecodeBodyMatchesJSON runs the differential check of
// FuzzDecodeBody over its seeds, for every request type, with and
// without a Content-Length, and cut short at every length.
func TestDecodeBodyMatchesJSON(t *testing.T) {
	var bodies []string
	for _, sd := range decoderSeeds {
		bodies = append(bodies, sd.body)
	}
	for _, sd := range decodeEdgeSeeds {
		bodies = append(bodies, sd.body)
	}
	for _, typ := range requestTypes {
		for _, body := range bodies {
			b := []byte(body)
			n := int64(len(b))
			decodeAgainstJSON(t, typ, b, n, n)
			decodeAgainstJSON(t, typ, b, n, -1)
			for limit := int64(0); limit < n; limit++ {
				decodeAgainstJSON(t, typ, b, limit, n)
			}
		}
	}
}

// FuzzDecodeBody compares DecodeRequest with encoding/json's Decoder
// with DisallowUnknownFields on arbitrary bodies: they must agree on
// accepting or rejecting, and an accepted body must give equal
// values. typ picks the request type and whether a Content-Length is
// sent; a nonzero cut below the body's length reads the body through
// a MaxBytesReader of cut-1 bytes.
func FuzzDecodeBody(f *testing.F) {
	for _, sd := range decoderSeeds {
		for typ := range requestTypes {
			f.Add(uint8(typ), uint16(0), []byte(sd.body))
		}
	}
	for _, sd := range decodeEdgeSeeds {
		f.Add(uint8(sd.typ), uint16(0), []byte(sd.body))
	}
	f.Add(uint8(0), uint16(13), []byte(`{"query":"q"}   `))
	f.Add(uint8(0), uint16(5), []byte(`null more`))
	f.Add(uint8(0), uint16(5), []byte(`null`))
	f.Fuzz(func(t *testing.T, typ uint8, cut uint16, body []byte) {
		n := int64(len(body))
		limit := n
		if cut > 0 && int64(cut) <= n {
			limit = int64(cut) - 1
		}
		contentLength := n
		if int(typ)/len(requestTypes)%2 == 1 {
			contentLength = -1
		}
		decodeAgainstJSON(t, requestTypes[int(typ)%len(requestTypes)], body, limit, contentLength)
	})
}

// TestOverLimitBody posts bodies over Config.MaxBodyBytes to a check
// endpoint and to catalog registration. A body whose first value runs
// past the limit must get 400 "bad request body". A valid value
// followed by padding past the limit is served, since the bytes after
// the first value are read but not parsed. Either way the limit trips
// on the response writer's MaxBytesReader, so the answer tells the
// client the connection closes.
func TestOverLimitBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big := strings.Repeat("R(1).\n", 100)
	marshal := func(v any) []byte {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	small := marshal(CheckRequest{Schemas: "rel R(a)", DB: "R(1).", Query: "Q(X) :- R(X)"})
	for _, tc := range []struct {
		name, path string
		body       []byte
		status     int
	}{
		{"check", "/v1/rcdp", marshal(CheckRequest{Schemas: "rel R(a)", DB: big, Query: "Q(X) :- R(X)"}), http.StatusBadRequest},
		{"catalog", "/v1/catalog", marshal(CatalogRequest{Name: "big", Schemas: "rel R(a)", DB: big}), http.StatusBadRequest},
		{"padded check", "/v1/rcdp", append(small, strings.Repeat(" ", 512)...), http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading the response: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, body %s; want %d", tc.name, resp.StatusCode, raw, tc.status)
		}
		if tc.status == http.StatusBadRequest {
			var out ErrorResponse
			if err := json.Unmarshal(raw, &out); err != nil || !strings.HasPrefix(out.Error, "bad request body") {
				t.Errorf("%s: error %q (%v); want bad request body", tc.name, out.Error, err)
			}
		}
		if !resp.Close {
			t.Errorf("%s: the over-limit answer keeps the connection open", tc.name)
		}
	}
}

// TestReadBodyPresize checks that readBody sizes its buffer from
// Content-Length, but never beyond maxPresize before the bytes arrive.
func TestReadBodyPresize(t *testing.T) {
	for _, tc := range []struct {
		body          string
		contentLength int64
		wantCap       int
	}{
		{`{"query":"q"}`, 13, 14},
		{`{"query":"q"}`, 16 << 20, maxPresize + 1},
	} {
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body))
		r.ContentLength = tc.contentLength
		body, err := readBody(httptest.NewRecorder(), r, 16<<20)
		if err != nil || string(body) != tc.body {
			t.Fatalf("Content-Length %d: read %q, %v", tc.contentLength, body, err)
		}
		if cap(body) != tc.wantCap {
			t.Errorf("Content-Length %d: buffer capacity %d, want %d", tc.contentLength, cap(body), tc.wantCap)
		}
	}
}
