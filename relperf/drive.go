package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// harness owns one in-process relserve server on a loopback listener
// and the closed-loop clients that drive it.
type harness struct {
	w       *workload
	client  *http.Client
	base    string
	srv     *server.Server
	hs      *http.Server
	served  chan error
	cursors []int
}

func newHarness(w *workload) *harness {
	return &harness{
		w:       w,
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w.clients}},
		cursors: make([]int, w.clients),
	}
}

// setup starts a fresh server, registers the workload's catalogs and
// sends the warm-up ops once, so that caches are filled and lazy set-up
// is done before anything is timed. It returns the time it took.
func (h *harness) setup() (time.Duration, error) {
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	h.srv = server.New(server.Config{CheckWorkers: h.w.checkWorkers})
	h.hs = &http.Server{Handler: h.srv.Handler()}
	h.base = "http://" + ln.Addr().String()
	h.served = make(chan error, 1)
	go func() { h.served <- h.hs.Serve(ln) }()
	for _, reg := range h.w.catalogs {
		status, body, err := h.post("/v1/catalog", mustJSON(reg))
		if err != nil {
			return 0, err
		}
		if status != http.StatusCreated {
			return 0, fmt.Errorf("catalog %s: status %d: %s", reg.Name, status, snippet(body))
		}
	}
	for _, o := range h.w.warm {
		status, body, err := h.post(o.path, o.body)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("warm-up %s: status %d: %s", o.path, status, snippet(body))
		}
	}
	return time.Since(start), nil
}

// stop drains the server and waits for its serve loop to return.
func (h *harness) stop() {
	if h.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.srv.Drain(ctx) // a drain that times out still ends in Shutdown
	_ = h.hs.Shutdown(ctx)
	<-h.served
	h.client.CloseIdleConnections()
	h.hs = nil
}

func (h *harness) post(path string, body []byte) (int, []byte, error) {
	resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (h *harness) getJSON(path string, out any) error {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// tally accumulates the outcomes of measured ops.
type tally struct {
	mu        sync.Mutex
	lat       map[string][]float64 // ms, per op class
	items     map[string]int64     // per op class; a batch counts as its queries
	attempted int64
	failed    int64
	errs      []string
}

func newTally() *tally { return &tally{lat: map[string][]float64{}, items: map[string]int64{}} }

func (t *tally) record(o *op, d time.Duration, failed int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lat[o.class] = append(t.lat[o.class], float64(d)/float64(time.Millisecond))
	t.items[o.class] += o.items
	t.attempted += o.items
	t.failed += failed
	t.note(err)
}

// checkLatencies returns the latencies of single /v1/rcdp and /v1/rcqp
// requests, degree-requesting ones included.
func (t *tally) checkLatencies() []float64 {
	return append(append([]float64(nil), t.lat["check"]...), t.lat["degree"]...)
}

func (t *tally) note(err error) {
	if err != nil && len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) merge(o *tally) {
	for c, l := range o.lat {
		t.lat[c] = append(t.lat[c], l...)
		t.items[c] += o.items[c]
	}
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// runWindow drives every client closed-loop until d has elapsed and
// returns once all of them have finished their last op, with the wall
// time from start to that point. With a tracer, each op gets an id and a
// server.http span and is remembered for the library replay.
func (h *harness) runWindow(d time.Duration, tl *tally, tr *tracer) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for cl := 0; cl < h.w.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			stream := h.w.streams[cl]
			for time.Now().Before(deadline) {
				o := stream[h.cursors[cl]%len(stream)]
				h.cursors[cl]++
				sp := tr.beginOp(o)
				t0 := time.Now()
				status, body, err := h.post(o.path, o.body)
				elapsed := time.Since(t0)
				tr.end(sp)
				failed := o.items
				if err == nil {
					failed, err = o.verify(status, body)
				}
				tl.record(o, elapsed, failed, err)
			}
		}(cl)
	}
	wg.Wait()
	return time.Since(start)
}

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
