// Command bench_diff is the CI bench-regression gate: it compares one
// or more `relbench -quick -json` runs against the committed
// BENCH_BASELINE.json and fails when a benchmark regressed beyond the
// tolerance.
//
//	go run ./scripts -baseline BENCH_BASELINE.json current.json [more.json ...]
//	go run ./scripts -baseline BENCH_BASELINE.json -write current1.json current2.json ...
//
// Records are keyed by (table, name, param) — workers is excluded so a
// baseline recorded at -workers 1 gates any single-worker run. When several input files are given, each key's
// duration is the median across them (run relbench a few times and
// pass every file to damp scheduler noise).
//
// CI runners and developer machines differ in absolute speed, so the
// gate is *scale-normalized*: it first computes the run-wide median
// ratio current/baseline over all shared keys (the machine-speed
// factor), then flags a key only when its ratio exceeds that factor by
// more than -tolerance. A uniformly slower machine shifts the factor
// and passes; a single benchmark that got slower than the rest of the
// suite stands out and fails. Keys whose baseline duration is below
// -min-duration are structurally checked (they must still exist) but
// not timed — micro-entries are pure noise.
//
// Structural check: every baseline key must be present in the current
// run (a silently dropped benchmark fails the gate); new keys are
// reported as notes and suggest a -write refresh.
//
// Work-count gate: relbench records the join rows and valuations of
// each timed check, which are exact at -workers 1. When the baseline
// holds a key's counts and every current run of that key ran at
// -workers 1, the gate fails when either count rose more than
// countTolerance (1%) over the baseline, naming the key and the
// count. It times nothing, so it holds where every entry is under
// -min-duration and the timing gate checks presence only.
//
// -write regenerates the baseline file from the inputs' medians
// instead of diffing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// record mirrors the relbench -json record shape; unknown fields are
// ignored so relbench can grow columns without breaking the gate. The
// work counts are pointers so that a baseline recorded without them
// gates durations only.
type record struct {
	Table      string `json:"table"`
	Name       string `json:"name"`
	Param      int    `json:"param"`
	Workers    int    `json:"workers"`
	DurationNS int64  `json:"duration_ns"`
	JoinRows   *int64 `json:"join_rows,omitempty"`
	Valuations *int64 `json:"valuations,omitempty"`
}

// countTolerance is the rise of join_rows or valuations over the
// baseline that the work-count gate allows. The counts are exact at
// -workers 1, so any rise is a change in the work a check does; the
// margin only spares a baseline recorded across a harmless rounding.
const countTolerance = 0.01

func (r record) key() string {
	return fmt.Sprintf("%s|%s|%d", r.Table, r.Name, r.Param)
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "committed baseline file")
		tolerance    = flag.Float64("tolerance", 0.25, "allowed slowdown beyond the run-wide machine-speed factor")
		minDuration  = flag.Duration("min-duration", 10*time.Millisecond, "baseline entries faster than this are presence-checked only")
		write        = flag.Bool("write", false, "regenerate the baseline from the inputs instead of diffing")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "bench_diff: need at least one relbench -json input file")
		os.Exit(2)
	}
	current, order, err := medians(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_diff:", err)
		os.Exit(2)
	}
	if *write {
		if err := writeBaseline(*baselinePath, current, order); err != nil {
			fmt.Fprintln(os.Stderr, "bench_diff:", err)
			os.Exit(2)
		}
		fmt.Printf("bench_diff: wrote %d entries to %s\n", len(order), *baselinePath)
		return
	}
	baseline, baseOrder, err := medians([]string{*baselinePath})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_diff:", err)
		os.Exit(2)
	}
	failed := diff(baseline, baseOrder, current, *tolerance, *minDuration)
	if diffCounts(baseline, baseOrder, current) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// medians loads every file and reduces duplicate keys to their median
// duration and work counts, remembering first-appearance order and a
// representative record per key. The representative's Workers is 1
// only when every run of the key ran at -workers 1.
func medians(paths []string) (map[string]record, []string, error) {
	durs := make(map[string][]int64)
	rows := make(map[string][]int64)
	vals := make(map[string][]int64)
	reps := make(map[string]record)
	var order []string
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var recs []record
		if err := json.Unmarshal(raw, &recs); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range recs {
			k := r.key()
			if rep, seen := reps[k]; !seen {
				order = append(order, k)
				reps[k] = r
			} else if r.Workers != rep.Workers {
				rep.Workers = 0
				reps[k] = rep
			}
			durs[k] = append(durs[k], r.DurationNS)
			if r.JoinRows != nil {
				rows[k] = append(rows[k], *r.JoinRows)
			}
			if r.Valuations != nil {
				vals[k] = append(vals[k], *r.Valuations)
			}
		}
	}
	out := make(map[string]record, len(durs))
	for k, ds := range durs {
		r := reps[k]
		r.DurationNS = *median(ds)
		r.JoinRows, r.Valuations = median(rows[k]), median(vals[k])
		out[k] = r
	}
	return out, order, nil
}

// median returns the median of xs (sorting them), nil when xs is
// empty.
func median(xs []int64) *int64 {
	if len(xs) == 0 {
		return nil
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return &xs[len(xs)/2]
}

func writeBaseline(path string, m map[string]record, order []string) error {
	recs := make([]record, 0, len(order))
	for _, k := range order {
		recs = append(recs, m[k])
	}
	buf, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// diff reports (and returns true on) regressions of current against
// baseline.
func diff(baseline map[string]record, baseOrder []string, current map[string]record, tolerance float64, minDuration time.Duration) bool {
	// Machine-speed factor: median ratio over the timed shared keys.
	var ratios []float64
	for k, b := range baseline {
		c, ok := current[k]
		if !ok || b.DurationNS <= 0 || time.Duration(b.DurationNS) < minDuration {
			continue
		}
		ratios = append(ratios, float64(c.DurationNS)/float64(b.DurationNS))
	}
	scale := 1.0
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		scale = ratios[len(ratios)/2]
	}
	fmt.Printf("bench_diff: %d baseline entries, %d current, machine-speed factor %.2f\n",
		len(baseline), len(current), scale)

	failed := false
	for _, k := range baseOrder {
		b := baseline[k]
		c, ok := current[k]
		if !ok {
			fmt.Printf("FAIL %s: present in baseline but missing from the current run\n", k)
			failed = true
			continue
		}
		if time.Duration(b.DurationNS) < minDuration {
			continue
		}
		ratio := float64(c.DurationNS) / float64(b.DurationNS)
		limit := scale * (1 + tolerance)
		if ratio > limit {
			fmt.Printf("FAIL %s: %v -> %v (%.2fx, limit %.2fx)\n",
				k, time.Duration(b.DurationNS), time.Duration(c.DurationNS), ratio, limit)
			failed = true
		}
	}
	for k := range current {
		if _, ok := baseline[k]; !ok {
			fmt.Printf("note: new benchmark %s not in baseline (refresh with -write)\n", k)
		}
	}
	if !failed {
		fmt.Println("bench_diff: no timing regressions")
	}
	return failed
}

// diffCounts reports (and returns true on) work counts of current that
// rose more than countTolerance over baseline. Only keys whose baseline
// holds the count and whose current runs all ran at -workers 1 are
// compared: the parallel search's counts vary run to run.
func diffCounts(baseline map[string]record, baseOrder []string, current map[string]record) bool {
	failed := false
	compared := 0
	for _, k := range baseOrder {
		b, c := baseline[k], current[k]
		if c.Workers != 1 {
			continue
		}
		for _, n := range []struct {
			name      string
			base, cur *int64
		}{
			{"join_rows", b.JoinRows, c.JoinRows},
			{"valuations", b.Valuations, c.Valuations},
		} {
			if n.base == nil || n.cur == nil {
				continue
			}
			compared++
			if float64(*n.cur) > float64(*n.base)*(1+countTolerance) {
				fmt.Printf("FAIL %s: %s %d -> %d (limit +%.0f%%)\n", k, n.name, *n.base, *n.cur, 100*countTolerance)
				failed = true
			}
		}
	}
	fmt.Printf("bench_diff: %d work counts compared at -workers 1", compared)
	if !failed {
		fmt.Print(", none rose")
	}
	fmt.Println()
	return failed
}
