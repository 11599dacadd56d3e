package server

import (
	"context"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/textq"
)

// TestChecksRunDuringRecheck parks a DB-side mutation inside its
// recheck phase. The entry's write lock is free there, so a catalog
// check on the same entry must answer, and the verdicts endpoint must
// still serve the version before the mutation.
func TestChecksRunDuringRecheck(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	registerMaintainedCRM(t, ts)
	e := s.catalog.Get("crm")
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unpark) // runs before the server closes
	e.mu.Lock()
	e.inRecheck = func() {
		close(parked)
		<-release
	}
	e.mu.Unlock()

	type answer struct {
		code int
		mr   MutationResponse
		err  error
	}
	mutated := make(chan answer, 1)
	go func() {
		var a answer
		a.code, a.err = tryPost(ts.URL+"/v1/catalog/crm/insert", MutationRequest{Facts: "Supt(e1, sales, c2)."}, &a.mr)
		mutated <- a
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("mutation never reached its recheck phase")
	}

	checked := make(chan answer, 1)
	go func() {
		var resp CheckResponse
		code, err := tryPost(ts.URL+"/v1/rcdp", CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}, &resp)
		checked <- answer{code: code, err: err}
	}()
	select {
	case a := <-checked:
		if a.err != nil || a.code != http.StatusOK {
			t.Fatalf("check during recheck: status %d, %v", a.code, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("check blocked while a mutation rechecks")
	}
	if _, vr := getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts"); vr.Version != 1 {
		t.Fatalf("verdicts version %d during the recheck, want 1 until publish", vr.Version)
	}

	unpark()
	a := <-mutated
	if a.err != nil || a.code != http.StatusOK || a.mr.Version != 2 || a.mr.Rechecked != 2 {
		t.Fatalf("mutation: status %d, %+v, %v; want 200, version 2, 2 rechecked", a.code, a.mr, a.err)
	}
	if _, vr := getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts"); vr.Version != 2 {
		t.Fatalf("verdicts version %d after publish, want 2", vr.Version)
	}
}

// TestCatalogLockWaitObserved: every acquisition of an entry's lock by
// a catalog check, a batch, catalog mining and a mutation's apply,
// recheck and publish phases lands in the lock-wait histogram.
func TestCatalogLockWaitObserved(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMaintainedCRM(t, ts)
	before := obs.CatalogLockWait.Count()
	var resp CheckResponse
	if code := post(t, ts.URL+"/v1/rcdp", CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}, &resp); code != http.StatusOK {
		t.Fatalf("check status %d", code)
	}
	if code, _ := postBatch(t, ts.URL, BatchRequest{Catalog: "crm", DB: exDB, Queries: []string{exQuery}}); code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	var mined MineResponse
	if code := post(t, ts.URL+"/v1/mine", MineRequest{Catalog: "crm", DBs: []string{exDB}}, &mined); code != http.StatusOK {
		t.Fatalf("mine status %d", code)
	}
	var mr MutationResponse
	if code := post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{Facts: "Supt(e1, sales, c2)."}, &mr); code != http.StatusOK {
		t.Fatalf("mutation status %d", code)
	}
	if got := obs.CatalogLockWait.Count() - before; got < 6 {
		t.Fatalf("lock-wait histogram counted %d waits, want at least 6", got)
	}
}

// maintainedQueries are the watched queries of the randomized
// maintenance test: the two CRM queries plus two that read other parts
// of D.
var maintainedQueries = []string{
	exQuery,
	incompleteQuery,
	`Q3(E) :- Supt(E, D, C), Cust(C, N, CC, A, P), CC = 01`,
	`Q4(C, A) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01, A = 908`,
}

// coldVerdicts checks every maintained query cold on a fresh parse of
// the given DB facts over the CRM master data, in the wire form of the
// verdicts endpoint. A failed check reads "stale", as a failed recheck
// leaves it.
func coldVerdicts(t *testing.T, facts map[string]bool) []WatchedVerdict {
	t.Helper()
	lines := make([]string, 0, len(facts))
	for f := range facts {
		lines = append(lines, f)
	}
	sort.Strings(lines)
	p, err := textq.ParseProblemData(textq.ProblemSource{
		Schemas: exSchemas, MasterSchemas: exMasterSchemas, Master: exMaster,
		Constraints: exConstraints, DB: strings.Join(lines, "\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]WatchedVerdict, len(maintainedQueries))
	for i, src := range maintainedQueries {
		q, err := textq.ParseQuery(src, p.Schemas)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&core.Checker{Workers: 1}).RCDPCtx(context.Background(), q, p.D, p.Dm, p.V)
		if err != nil {
			res = nil
		}
		out[i] = watchedJSON(src, res, false)
	}
	return out
}

// sameVerdicts compares maintained verdicts with cold ones, ignoring
// the reused flag.
func sameVerdicts(got, want []WatchedVerdict) bool {
	return slices.EqualFunc(got, want, func(g, w WatchedVerdict) bool {
		g.Reused = w.Reused
		return reflect.DeepEqual(g, w)
	})
}

// TestMaintainedVerdictsRandomized interleaves random DB inserts and
// deletes and master duplicates with concurrent catalog checks and
// verdict long-polls (run it with -race). After each mutation the
// maintained verdicts and witnesses must equal cold checks on a copy of
// the mutated data, and a mutation whose rechecks fail (a DB insert
// that breaks partial closure) must leave every query stale. Versions
// must rise by one per mutation, and every long-poll must read exactly
// the verdicts published for the version it reports.
func TestMaintainedVerdictsRandomized(t *testing.T) {
	staleSteps := 0
	for _, seed := range []int64{1, 2, 3} {
		_, ts := newTestServer(t, Config{Workers: 4})
		var info CatalogInfo
		if code := post(t, ts.URL+"/v1/catalog", CatalogRequest{
			Name: "crm", Schemas: exSchemas, MasterSchemas: exMasterSchemas,
			DB: exDB, Master: exMaster, Constraints: exConstraints,
			Queries: maintainedQueries,
		}, &info); code != http.StatusCreated {
			t.Fatalf("seed %d: register status %d", seed, code)
		}
		facts := map[string]bool{}
		for _, f := range strings.Split(strings.TrimSpace(exDB), "\n") {
			facts[f] = true
		}
		// The fact pool: the seed DB, new support edges and customers,
		// and a Cust row that puts c1 in area 999, which breaks partial
		// closure while c1 has a support edge.
		pool := []string{
			"Cust(c1, Ann, 01, 908, 5550001).", "Cust(c2, Bob, 01, 973, 5550002).",
			"Supt(e0, sales, c1).", "Supt(e1, sales, c2).", "Supt(e2, hr, c1).",
			"Supt(e0, sales, c2).", "Cust(c3, Cid, 44, 212, 5550003).", "Supt(e3, sales, c3).",
			"Cust(c1, Ann, 01, 999, 5550001).",
		}
		masterRows := strings.Split(strings.TrimSpace(exMaster), "\n")

		var mu sync.Mutex
		published := map[uint64][]WatchedVerdict{1: coldVerdicts(t, facts)}
		var polled []*VerdictsResponse
		done := make(chan struct{})
		var wg sync.WaitGroup
		var once sync.Once
		stop := func() {
			once.Do(func() { close(done) })
			wg.Wait()
		}
		t.Cleanup(stop) // a failed step stops the readers before the server closes
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					var resp CheckResponse
					code, err := tryPost(ts.URL+"/v1/rcdp", CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}, &resp)
					if err != nil || code != http.StatusOK || resp.Verdict != "complete" {
						t.Errorf("seed %d: check during mutations: status %d verdict %q, %v", seed, code, resp.Verdict, err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := uint64(1)
			for {
				_, vr, err := tryVerdicts(ts.URL + "/v1/catalog/crm/verdicts?wait_ms=200&after=" + strconv.FormatUint(last, 10))
				if err != nil {
					t.Errorf("seed %d: long-poll: %v", seed, err)
					return
				}
				if vr.Version < last {
					t.Errorf("seed %d: long-poll read version %d after %d", seed, vr.Version, last)
					return
				}
				last = vr.Version
				mu.Lock()
				polled = append(polled, vr)
				mu.Unlock()
				select {
				case <-done:
					return
				default:
				}
			}
		}()

		rng := rand.New(rand.NewSource(seed))
		version := uint64(1)
		for step := 0; step < 30; step++ {
			var req MutationRequest
			op := "insert"
			switch r := rng.Intn(10); {
			case r < 4:
				req.Facts = pool[rng.Intn(len(pool))]
				facts[req.Facts] = true
			case r < 8:
				op = "delete"
				req.Facts = pool[rng.Intn(len(pool))]
				delete(facts, req.Facts)
			default:
				req.Target = "master"
				req.Facts = masterRows[rng.Intn(len(masterRows))]
			}
			want := coldVerdicts(t, facts)
			stale := want[0].Verdict == "stale"
			if stale {
				staleSteps++
			}
			var mr MutationResponse
			code := post(t, ts.URL+"/v1/catalog/crm/"+op, req, &mr)
			version++
			switch {
			case stale && code != http.StatusUnprocessableEntity:
				t.Fatalf("seed %d step %d: %s %+v broke partial closure but answered %d", seed, step, op, req, code)
			case !stale && (code != http.StatusOK || mr.Version != version || mr.Reused+mr.Rechecked != len(maintainedQueries)):
				t.Fatalf("seed %d step %d: %s %+v answered %d %+v, want version %d", seed, step, op, req, code, mr, version)
			}
			_, vr := getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts")
			if vr.Version != version {
				t.Fatalf("seed %d step %d: verdicts version %d, want %d", seed, step, vr.Version, version)
			}
			if !sameVerdicts(vr.Verdicts, want) {
				t.Fatalf("seed %d step %d: after %s %+v maintained verdicts\n%+v\nwant cold\n%+v", seed, step, op, req, vr.Verdicts, want)
			}
			mu.Lock()
			published[version] = want
			mu.Unlock()
		}
		stop()
		for _, vr := range polled {
			if !sameVerdicts(vr.Verdicts, published[vr.Version]) {
				t.Fatalf("seed %d: long-poll at version %d read %+v, published %+v", seed, vr.Version, vr.Verdicts, published[vr.Version])
			}
		}
		if len(polled) == 0 {
			t.Fatalf("seed %d: no long-poll answered", seed)
		}
	}
	if staleSteps == 0 {
		t.Fatal("no mutation broke partial closure: the failed-recheck path went untested")
	}
}
