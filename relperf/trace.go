package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Tracing. The traced run keeps one record per span in memory — the
// op id it belongs to, its own id, its parent, its name and its interval
// — plus one record per measurement window with the obs.Default counter
// deltas read at the window's edges, where every client is between ops.
// At exit the records are written as JSONL and reduced to the per-layer
// metrics. Spans wrap the benchmark's own calls: the HTTP request
// (server.http) and, in a later replay phase, the same op's calls into
// each module's public functions (textq parsing, cq evaluation, core
// checks, approx, mine, Delta.Apply). Nothing inside the program is
// instrumented.

// record is one JSONL line: a span or a window.
type record struct {
	Kind string `json:"kind"` // "span" or "window"

	Op     int64  `json:"op,omitempty"`
	ID     int64  `json:"id,omitempty"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name,omitempty"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns,omitempty"`
	End    int64  `json:"end_ns,omitempty"`

	Traced       bool               `json:"traced,omitempty"`
	WallNS       int64              `json:"wall_ns,omitempty"`
	Items        int64              `json:"items,omitempty"`
	Classes      map[string]int64   `json:"classes,omitempty"`
	CheckWorkers int                `json:"check_workers,omitempty"`
	Counters     map[string]float64 `json:"counters,omitempty"`
	DictValues   int64              `json:"dict_values,omitempty"`
}

// tracer collects records; a nil tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	base   time.Time
	recs   []record
	nextID int64
	ops    []tracedOp
}

type tracedOp struct {
	id int64
	o  *op
}

type spanRef struct {
	op, id, parent int64
	name, class    string
	start          time.Time
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// beginOp opens the server.http span of a fresh op and remembers the op
// for the replay phase.
func (t *tracer) beginOp(o *op) *spanRef {
	if t == nil {
		return nil
	}
	id := t.newID()
	t.mu.Lock()
	t.ops = append(t.ops, tracedOp{id: id, o: o})
	t.mu.Unlock()
	s := t.begin(id, 0, "server.http")
	s.class = o.class
	return s
}

func (t *tracer) begin(op, parent int64, name string) *spanRef {
	if t == nil {
		return nil
	}
	return &spanRef{op: op, id: t.newID(), parent: parent, name: name, start: time.Now()}
}

func (t *tracer) end(s *spanRef) {
	if t == nil || s == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recs = append(t.recs, record{Kind: "span", Op: s.op, ID: s.id, Parent: s.parent, Name: s.name,
		Class: s.class, Start: s.start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()})
}

// timed runs fn inside a span.
func (t *tracer) timed(op, parent int64, name string, fn func() error) error {
	s := t.begin(op, parent, name)
	err := fn()
	t.end(s)
	return err
}

func (t *tracer) window(rec record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recs = append(t.recs, rec)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range t.recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTrace(r io.Reader) ([]record, error) {
	var out []record
	dec := json.NewDecoder(r)
	for dec.More() {
		var rec record
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// counters reads the obs.Default registry: counters and gauges by name,
// counter vectors both per label ("name{label}") and summed ("name").
func counters() map[string]float64 {
	out := map[string]float64{}
	for name, v := range obs.Default.Snapshot() {
		switch x := v.(type) {
		case int64:
			out[name] = float64(x)
		case map[string]int64:
			var sum int64
			for label, n := range x {
				out[name+"{"+label+"}"] = float64(n)
				sum += n
			}
			out[name] = float64(sum)
		}
	}
	return out
}

func counterDelta(after, before map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// spanStat summarizes one span name.
type spanStat struct {
	name           string
	calls          int
	meanUS, selfUS float64
}

// reduce turns trace records into the per-layer metrics and the span
// table. A span's self time is its duration minus the part of its
// interval covered by its children.
func reduce(recs []record) (map[string]metric, []spanStat) {
	children := map[int64][]record{}
	var spans []record
	var wins []record
	for _, r := range recs {
		switch r.Kind {
		case "span":
			spans = append(spans, r)
			if r.Parent != 0 {
				children[r.Parent] = append(children[r.Parent], r)
			}
		case "window":
			wins = append(wins, r)
		}
	}
	type acc struct {
		n         int
		dur, self float64
	}
	by := map[string]*acc{}
	httpNS := map[int64]float64{}
	replayNS := map[int64]float64{}
	for _, s := range spans {
		dur := float64(s.End - s.Start)
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.n++
		a.dur += dur
		a.self += dur - covered(s, children[s.ID])
		switch s.Name {
		case "server.http":
			httpNS[s.Op] = dur
		case "replay":
			replayNS[s.Op] = dur
		}
	}
	var stats []spanStat
	for name, a := range by {
		stats = append(stats, spanStat{name: name, calls: a.n, meanUS: a.dur / float64(a.n) / 1e3, selfUS: a.self / float64(a.n) / 1e3})
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].name < stats[j].name })
	selfUS := func(name string) float64 {
		if a := by[name]; a != nil && a.n > 0 {
			return a.self / float64(a.n) / 1e3
		}
		return 0
	}

	// server.http_us: the op's HTTP time minus the library-replay time of
	// the same op, over the ops that were replayed.
	var diff float64
	var paired int
	for id, r := range replayNS {
		if h, ok := httpNS[id]; ok {
			diff += h - r
			paired++
		}
	}

	c := map[string]float64{}
	classes := map[string]float64{}
	// Per-op counts divide by items: a batch counts as its queries.
	var ops, wallTraced, opsTraced, wallPlain, opsPlain, poolCapacity float64
	var dict int64
	for _, w := range wins {
		for k, v := range w.Counters {
			c[k] += v
		}
		for k, v := range w.Classes {
			classes[k] += float64(v)
		}
		ops += float64(w.Items)
		poolCapacity += float64(w.WallNS) * float64(w.CheckWorkers)
		if w.Traced {
			wallTraced += float64(w.WallNS)
			opsTraced += float64(w.Items)
		} else {
			wallPlain += float64(w.WallNS)
			opsPlain += float64(w.Items)
		}
		if w.DictValues > dict {
			dict = w.DictValues
		}
	}
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	rate := func(items, ns float64) float64 { return per(items, ns/1e9) }
	ratio := func(hit, miss float64) float64 { return per(hit, hit+miss) }
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	set("server.http_us", "us", per(diff, float64(paired))/1e3)
	set("server.decode_us", "us", selfUS("server.decode"))
	set("server.query_cache_hit_ratio", "ratio", ratio(c["relserve_query_cache_total{hit}"], c["relserve_query_cache_total{miss}"]))
	set("server.rejected_per_op", "count", per(c["relserve_rejected_total"], ops))
	set("textq.parse_facts_us", "us", selfUS("textq.parse_facts"))
	set("textq.parse_problem_us", "us", selfUS("textq.parse_problem"))
	set("textq.register_ms", "ms", selfUS("textq.register")/1e3)
	set("relation.index_builds_per_op", "count", per(c["relcomp_relation_index_builds_total"], ops))
	set("relation.apply_batch_us", "us", selfUS("relation.apply_batch"))
	set("relation.dict_values", "count", float64(dict))
	set("cq.evals_per_op", "count", per(c["relcomp_cq_evals_total"], ops))
	set("cq.join_rows_per_op", "count", per(c["relcomp_cq_join_rows_total"], ops))
	set("cq.index_probes_per_op", "count", per(c["relcomp_cq_index_probes_total"], ops))
	set("cq.full_scans_per_op", "count", per(c["relcomp_cq_full_scans_total"], ops))
	set("cq.tableau_builds_per_op", "count", per(c["relcomp_cq_tableau_builds_total"], ops))
	set("cq.eval_us", "us", selfUS("cq.eval"))
	set("cc.pdm_hit_ratio", "ratio", ratio(c["relcomp_cc_pdm_cache_hits_total"], c["relcomp_cc_pdm_cache_misses_total"]))
	set("cc.pdm_patches_per_mutation", "count", per(c["relcomp_cc_pdm_cache_patches_total"], classes["mutation"]))
	set("core.check_us", "us", selfUS("core.check"))
	set("core.valuations_per_check", "count", per(c["relcomp_core_valuations_total"], c["relcomp_core_checks_total"]))
	set("core.pool_busy_frac", "ratio", per(c["relcomp_core_pool_busy_nanoseconds_total"], poolCapacity))
	set("core.recheck_us", "us", selfUS("core.recheck"))
	set("core.recheck_reused_ratio", "ratio", ratio(c["relcomp_core_recheck_reused_total"], c["relcomp_core_recheck_cold_total"]))
	set("core.degree_us", "us", selfUS("core.degree"))
	set("core.degree_candidates_per_call", "count", per(c["relcomp_degree_candidates_total"], c["relcomp_degree_checks_total"]))
	set("core.gate_trips", "count", c["relcomp_gate_trips_total"])
	set("approx.approximate_us", "us", selfUS("approx.approximate"))
	set("approx.advise_us", "us", selfUS("approx.advise"))
	set("approx.candidates_per_call", "count", per(c["relcomp_approx_candidates_total"], classes["approximate"]))
	set("approx.certified_ratio", "ratio", per(c["relcomp_approx_certified_total"], c["relcomp_approx_candidates_total"]))
	set("approx.advice_rounds_per_call", "count", per(c["relcomp_approx_advice_rounds_total"], classes["advise"]))
	set("mine.mine_us", "us", selfUS("mine.mine"))
	set("mine.candidates_per_run", "count", per(c["relcomp_mine_candidates_total"], c["relcomp_mine_runs_total"]))
	set("mine.emit_ratio", "ratio", per(c["relcomp_mine_emitted_total"], c["relcomp_mine_candidates_total"]))
	set("mine.oracle_rejections_per_run", "count", per(c["relcomp_mine_oracle_rejections_total"], c["relcomp_mine_runs_total"]))
	set("bench.trace_overhead_ops_per_s", "1/s", rate(opsTraced, wallTraced)-rate(opsPlain, wallPlain))
	return m, stats
}

// covered returns how much of s's interval its children cover.
func covered(s record, kids []record) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return float64(total)
}

// printSpans writes the span table: calls, mean duration and mean self
// time per span name.
func printSpans(w io.Writer, stats []spanStat) {
	fmt.Fprintf(w, "relperf: %-24s %8s %12s %12s\n", "span", "calls", "mean_us", "self_us")
	for _, s := range stats {
		fmt.Fprintf(w, "relperf: %-24s %8d %12.1f %12.1f\n", s.name, s.calls, s.meanUS, s.selfUS)
	}
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "relperf: metric %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
