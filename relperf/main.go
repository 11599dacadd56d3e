// Command relperf is the repository benchmark. It starts a relserve
// server (server.New behind a loopback listener) inside its own
// process, drives one of four seeded closed-loop workloads against it
// for a fixed time, checks every response against answers computed
// with direct library calls, and prints its metrics by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set of BENCHMARK.json.
// With -trace 1 a separate traced run records spans around the
// benchmark's own calls into each layer, writes them as JSONL, and
// reduces them to the per-layer set.
//
// Usage, from the repository root (relperf/run.sh builds and runs it):
//
//	relperf -workload serve-crm|hard-search|mutate-mix|analyze
//	        [-seed N|default|heldout] [-seconds S] [-trace 0|1]
//	relperf -reduce spans.jsonl        # per-layer metrics of a trace
//	relperf -compare old.json new.json # compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeed = 1
	// heldOutSeed is kept out of tuning: a claim made while working on
	// the default seed is confirmed on it.
	heldOutSeed = 20090629
)

type config struct {
	seed    int64
	seconds float64
	trace   bool
	setups  int // set-ups per run; setup_s is their median
	outDir  string
	commit  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp identifies the conditions of a run.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

// result is what a run leaves in its result file.
type result struct {
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(mainArgs(os.Args[1:], os.Stdout, os.Stderr)) }

func mainArgs(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("relperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seedArg := fs.String("seed", "default", `input seed: an integer, "default" or "heldout"`)
	seconds := fs.Float64("seconds", 10, "measured run length in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	outDir := fs.String("out", ".bench_build/runs", "directory for result files and span traces")
	commit := fs.String("commit", "unknown", "source revision recorded in the stamp")
	reduceFile := fs.String("reduce", "", "print the per-layer metrics of a span JSONL file and exit")
	compareRuns := fs.Bool("compare", false, "compare the two result files given as arguments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "relperf:", err)
		return 1
	}
	switch {
	case *reduceFile != "":
		f, err := os.Open(*reduceFile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		recs, err := readTrace(f)
		if err != nil {
			return fail(err)
		}
		m, stats := reduce(recs)
		printSpans(stdout, stats)
		printMetrics(stdout, m)
		return 0
	case *compareRuns:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		if err := compare(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	seed, err := parseSeed(*seedArg)
	if err != nil {
		return fail(err)
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}
	cfg := config{seed: seed, seconds: *seconds, trace: *trace == 1, setups: 5, outDir: *outDir, commit: *commit}
	w, err := buildWorkload(*name, seed)
	if err != nil {
		return fail(err)
	}
	res, err := run(w, cfg, stdout)
	if err != nil {
		return fail(err)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, seed, *trace))
	if err := writeJSONFile(path, res); err != nil {
		return fail(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func parseSeed(s string) (int64, error) {
	switch s {
	case "default":
		return defaultSeed, nil
	case "heldout":
		return heldOutSeed, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("-seed %q: want an integer, \"default\" or \"heldout\"", s)
	}
	return n, nil
}

// run sets the server up cfg.setups times (the last set-up stays up),
// measures, checks, and returns the result. It prints a human-readable
// report to out.
func run(w *workload, cfg config, out io.Writer) (*result, error) {
	h := newHarness(w)
	defer h.stop()
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		h.stop()
		d, err := h.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	st := stamp{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: cfg.commit}
	stampLine, _ := json.Marshal(st)
	fmt.Fprintf(out, "relperf: stamp %s\n", stampLine)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	tl := newTally()
	var m map[string]metric
	if cfg.trace {
		var err error
		if m, err = tracedRun(h, cfg, tl, dur, out); err != nil {
			return nil, err
		}
	} else {
		wall := h.runWindow(dur, tl, nil)
		opsPerS := float64(tl.attempted) / wall.Seconds()
		if err := finish(h, tl); err != nil {
			return nil, err
		}
		lat := tl.checkLatencies()
		m = map[string]metric{
			"setup_s":      {quantile(setups, 0.5), "s"},
			"ops_per_s":    {opsPerS, "1/s"},
			"check_p50_ms": {quantile(lat, 0.5), "ms"},
			"check_p90_ms": {quantile(lat, 0.9), "ms"},
			"live_heap_mb": {h.liveHeapMB(), "MB"},
		}
	}
	report(out, tl)
	printMetrics(out, m)
	return &result{Stamp: st, Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: m}, nil
}

// finish runs the workload's end-of-run check and counts its items.
func finish(h *harness, tl *tally) error {
	if h.w.finish == nil {
		return nil
	}
	n, failed, err := h.w.finish(h)
	if n == 0 && err != nil {
		return fmt.Errorf("final check: %w", err)
	}
	tl.attempted += n
	tl.failed += failed
	tl.note(err)
	return nil
}

// liveHeapMB is the live heap after a forced collection, with the server
// and its caches still up but the client's idle connections (and their
// buffers) closed.
func (h *harness) liveHeapMB() float64 {
	h.client.CloseIdleConnections()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tracedRun alternates untraced and traced measurement windows (their
// ops_per_s difference is the tracing overhead), reading the obs
// counters at every window edge, then replays the traced ops through
// the library for up to half the run length, writes the spans as JSONL
// and reduces the file to the per-layer metrics.
func tracedRun(h *harness, cfg config, tl *tally, dur time.Duration, out io.Writer) (map[string]metric, error) {
	const windows = 6
	tr := newTracer()
	for i := 0; i < windows; i++ {
		traced := i%2 == 1
		wtr := tr
		if !traced {
			wtr = nil
		}
		wt := newTally()
		before := counters()
		wall := h.runWindow(dur/windows, wt, wtr)
		after := counters()
		tr.window(record{Kind: "window", Traced: traced, WallNS: wall.Nanoseconds(),
			Items: wt.attempted, Classes: wt.items, CheckWorkers: h.w.checkWorkers,
			Counters: counterDelta(after, before), DictValues: int64(after["relcomp_relation_dict_values"])})
		tl.merge(wt)
	}
	if err := finish(h, tl); err != nil {
		return nil, err
	}

	rp, err := newReplayer(h.w)
	if err != nil {
		return nil, err
	}
	if err := rp.register(tr); err != nil {
		return nil, err
	}
	ops := append([]tracedOp(nil), tr.ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].id < ops[j].id })
	deadline := time.Now().Add(dur / 2)
	for _, to := range ops {
		if !time.Now().Before(deadline) {
			break
		}
		if err := rp.replay(tr, to.id, to.o); err != nil {
			return nil, fmt.Errorf("replay %s: %w", to.o.path, err)
		}
	}

	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", h.w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := readTrace(f)
	if err != nil {
		return nil, err
	}
	m, stats := reduce(recs)
	printSpans(out, stats)
	return m, nil
}

// report prints per-class latencies and the failure share.
func report(out io.Writer, tl *tally) {
	classes := make([]string, 0, len(tl.lat))
	for c := range tl.lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		l := tl.lat[c]
		fmt.Fprintf(out, "relperf: class %-12s requests %6d items %7d p50_ms %9.3f p90_ms %9.3f\n",
			c, len(l), tl.items[c], quantile(l, 0.5), quantile(l, 0.9))
	}
	frac := 0.0
	if tl.attempted > 0 {
		frac = float64(tl.failed) / float64(tl.attempted)
	}
	fmt.Fprintf(out, "relperf: failed_frac %.6f (%d of %d)\n", frac, tl.failed, tl.attempted)
	for _, e := range tl.errs {
		fmt.Fprintf(out, "relperf: failure: %s\n", e)
	}
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compare prints the metric changes between two result files. Runs made
// with different core counts or GOMAXPROCS, or on different workloads,
// are not comparable and are refused.
func compare(pathA, pathB string, out io.Writer) error {
	var a, b result
	for _, x := range []struct {
		path string
		r    *result
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.r); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if a.Stamp.NProc != b.Stamp.NProc || a.Stamp.GOMAXPROCS != b.Stamp.GOMAXPROCS {
		return fmt.Errorf("refusing to compare: nproc/GOMAXPROCS %d/%d vs %d/%d",
			a.Stamp.NProc, a.Stamp.GOMAXPROCS, b.Stamp.NProc, b.Stamp.GOMAXPROCS)
	}
	if a.Stamp.Workload != b.Stamp.Workload || a.Stamp.Trace != b.Stamp.Trace {
		return fmt.Errorf("refusing to compare: %s (trace %v) vs %s (trace %v)",
			a.Stamp.Workload, a.Stamp.Trace, b.Stamp.Workload, b.Stamp.Trace)
	}
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.Metrics[n], b.Metrics[n]
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", (mb.Value-ma.Value)/ma.Value*100)
		}
		fmt.Fprintf(out, "%-34s %14.4f %14.4f %8s %s\n", n, ma.Value, mb.Value, change, ma.Unit)
	}
	return nil
}
