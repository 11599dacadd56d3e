package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_counter_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(0)  // no-op
	c.Add(-3) // counters are monotone: negative adds are dropped
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	c.Inc()
	if got := c.Value(); got != 5 {
		t.Fatalf("disabled Inc applied: Value = %d, want 5", got)
	}
}

func TestGaugeAppliesWhileDisabled(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "help")
	g.Add(1)
	prev := SetEnabled(false)
	g.Add(-1) // paired decrement must land even while disabled
	SetEnabled(prev)
	if got := g.Value(); got != 0 {
		t.Fatalf("Value = %d, want 0", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("Set: Value = %d, want 7", got)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_vec_total", "help", "kind")
	v.Inc("a")
	v.Add("b", 3)
	if v.Value("a") != 1 || v.Value("b") != 3 || v.Value("missing") != 0 {
		t.Fatalf("values: a=%d b=%d missing=%d", v.Value("a"), v.Value("b"), v.Value("missing"))
	}
	snap := v.snapshot().(map[string]int64)
	if len(snap) != 2 || snap["a"] != 1 || snap["b"] != 3 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 102.65; got != want {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
	// Cumulative le-semantics: 0.05 and 0.1 land in le="0.1" (bounds are
	// inclusive), 0.5 adds to le="1", 2 to le="10", 100 only to +Inf.
	cum := h.cumulative()
	want := []int64{2, 3, 4, 5}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", cum, want)
		}
	}
	if cum[len(cum)-1] != h.Count() {
		t.Fatalf("+Inf bucket %d != count %d", cum[len(cum)-1], h.Count())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "help")
}

func TestPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("aaa_total", "counts things")
	c.Add(2)
	g := r.Gauge("bbb_gauge", "gauges things")
	g.Set(-4)
	v := r.CounterVec("ccc_total", "labeled", "kind")
	v.Inc("z")
	v.Inc("a")
	h := r.Histogram("ddd_seconds", "latency", []float64{0.25, 10})
	h.Observe(0.2)

	var b strings.Builder
	r.WritePrometheus(&b)
	want := `# HELP aaa_total counts things
# TYPE aaa_total counter
aaa_total 2
# HELP bbb_gauge gauges things
# TYPE bbb_gauge gauge
bbb_gauge -4
# HELP ccc_total labeled
# TYPE ccc_total counter
ccc_total{kind="a"} 1
ccc_total{kind="z"} 1
# HELP ddd_seconds latency
# TYPE ddd_seconds histogram
ddd_seconds_bucket{le="0.25"} 1
ddd_seconds_bucket{le="10"} 1
ddd_seconds_bucket{le="+Inf"} 1
ddd_seconds_sum 0.2
ddd_seconds_count 1
`
	if got := b.String(); got != want {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("one_total", "h").Add(3)
	r.Gauge("two_gauge", "h").Set(9)
	snap := r.Snapshot()
	if snap["one_total"].(int64) != 3 || snap["two_gauge"].(int64) != 9 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestFormatBound(t *testing.T) {
	cases := map[float64]string{
		0.0001: "0.0001",
		0.25:   "0.25",
		1:      "1",
		10:     "10",
	}
	for in, want := range cases {
		if got := formatBound(in); got != want {
			t.Errorf("formatBound(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestConcurrentWriters hammers every instrument kind from parallel
// goroutines; run under -race it checks the lock-free paths, and the
// final values check that no increment is lost.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_counter_total", "h")
	g := r.Gauge("conc_gauge", "h")
	v := r.CounterVec("conc_vec_total", "h", "worker")
	h := r.Histogram("conc_seconds", "h", []float64{0.5})

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w%2)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				v.Inc(label)
				h.Observe(0.25)
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if got := v.Value("w0") + v.Value("w1"); got != total {
		t.Errorf("vec total = %d, want %d", got, total)
	}
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	if h.Sum() != 0.25*total {
		t.Errorf("histogram sum = %g, want %g", h.Sum(), 0.25*float64(total))
	}
}

// TestSnapshotUnderLoad takes snapshots while writers run: counter reads
// must be monotone between snapshots and the histogram +Inf bucket must
// equal its count within every single read pass.
func TestSnapshotUnderLoad(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("load_counter_total", "h")
	h := r.Histogram("load_seconds", "h", []float64{1})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.5)
				}
			}
		}()
	}
	var last int64
	for i := 0; i < 100; i++ {
		snap := r.Snapshot()
		cur := snap["load_counter_total"].(int64)
		if cur < last {
			t.Fatalf("counter went backwards: %d -> %d", last, cur)
		}
		last = cur
		hs := snap["load_seconds"].(map[string]any)
		buckets := hs["buckets"].(map[string]int64)
		// +Inf is cumulative over all buckets; it may lag or lead count
		// (separate atomics), but never exceeds a later count read.
		if inf := buckets["+Inf"]; inf < 0 {
			t.Fatalf("negative bucket: %d", inf)
		}
	}
	close(stop)
	wg.Wait()
}

func TestEnginesMetricsRegistered(t *testing.T) {
	// The engine metric set must live in the Default registry under the
	// names the exposition surface documents.
	for _, name := range []string{
		"relcomp_cq_evals_total",
		"relcomp_cq_join_rows_total",
		"relcomp_cq_index_probes_total",
		"relcomp_cq_full_scans_total",
		"relcomp_cq_cardinality_cuts_total",
		"relcomp_cq_tableau_builds_total",
		"relcomp_cq_compiled_lookups_total",
		"relcomp_cc_pdm_cache_hits_total",
		"relcomp_cc_pdm_cache_misses_total",
		"relcomp_relation_index_builds_total",
		"relcomp_core_valuations_total",
		"relcomp_core_head_cuts_total",
		"relcomp_core_nogood_jumps_total",
		"relcomp_core_pool_tasks_total",
		"relcomp_core_pool_busy_nanoseconds_total",
		"relcomp_core_pool_workers",
		"relcomp_core_checks_total",
		"relcomp_core_verdicts_total",
		"relcomp_core_exhaustions_total",
		"relcomp_gate_trips_total",
		"relcomp_core_check_seconds",
	} {
		if Default.get(name) == nil {
			t.Errorf("metric %s not registered", name)
		}
	}
}
