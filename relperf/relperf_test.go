package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the tests hold the program to.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShortRunPrintsEveryMetric runs every workload briefly, untraced and
// traced, through the command-line entry point, and checks that the last
// output line carries exactly the metrics BENCHMARK.json names, with
// their units, and that no response was wrong.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, name := range names {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "0.6", "--trace", trace, "--out", t.TempDir()}
				if code := mainArgs(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line: %v\n%s", err, stdout.String())
				}
				if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
					t.Fatalf("last line keys: %s", lines[len(lines)-1])
				}
				var got struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatal(err)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					g, ok := got.Metrics[m.Name]
					if !ok || g.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, g, ok, m.Unit)
					}
					if !strings.Contains(stdout.String(), "metric "+m.Name+" ") {
						t.Errorf("metric %s is not printed by name", m.Name)
					}
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("correct %v, %d of %d failed:\n%s", got.Correct, got.Failed, got.Attempted, stdout.String())
				}
			})
		}
	}
}

// TestPredictionsCoverPerLayer checks that predictions.json states a
// prediction for exactly the per-layer metrics of BENCHMARK.json.
func TestPredictionsCoverPerLayer(t *testing.T) {
	data, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		PerLayer map[string]json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	spec := loadSpec(t)
	for _, m := range spec.PerLayer {
		if p.PerLayer[m.Name] == nil {
			t.Errorf("no prediction for %s", m.Name)
		}
	}
	if len(p.PerLayer) != len(spec.PerLayer) {
		t.Errorf("%d predictions for %d per-layer metrics", len(p.PerLayer), len(spec.PerLayer))
	}
}

// TestWrongExpectationCounted corrupts one expected verdict and checks
// that the responses it is compared with count as failures.
func TestWrongExpectationCounted(t *testing.T) {
	w, err := buildWorkload("serve-crm", 3)
	if err != nil {
		t.Fatal(err)
	}
	first := w.streams[0][0]
	if first.want == nil {
		t.Fatal("first serve-crm op carries no expected verdict")
	}
	first.want.verdict = map[string]string{"complete": "incomplete", "incomplete": "complete"}[first.want.verdict]
	var out bytes.Buffer
	res, err := run(w, config{seed: 3, seconds: 0.5, setups: 1, outDir: t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct {
		t.Fatalf("corrupted expectation not counted: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if strings.Contains(out.String(), "failed_frac 0.000000") {
		t.Fatalf("failed_frac reads 0:\n%s", out.String())
	}
}

// fingerprint hashes everything a workload would send.
func fingerprint(w *workload) string {
	h := sha256.New()
	for _, reg := range w.catalogs {
		h.Write(mustJSON(reg))
	}
	for _, ops := range append([][]*op{w.warm}, w.streams...) {
		for _, o := range ops {
			fmt.Fprintf(h, "%s\n%s\n", o.path, o.body)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSameSeedSameInputs checks that inputs are a function of the seed.
func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		var prints []string
		for _, seed := range []int64{5, 5, 6} {
			w, err := buildWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			prints = append(prints, fingerprint(w))
		}
		if prints[0] != prints[1] {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if prints[0] == prints[2] {
			t.Errorf("%s: different seeds generated the same inputs", name)
		}
	}
}

// TestCompareRefusesDifferentCPUs checks that runs from different core
// counts are not compared.
func TestCompareRefusesDifferentCPUs(t *testing.T) {
	dir := t.TempDir()
	a := result{Stamp: stamp{Workload: "serve-crm", NProc: 2, GOMAXPROCS: 2}, Metrics: map[string]metric{"ops_per_s": {100, "1/s"}}}
	b := a
	b.Stamp.GOMAXPROCS = 4
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSONFile(pa, a); err != nil {
		t.Fatal(err)
	}
	if err := writeJSONFile(pb, b); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compare(pa, pb, &out); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("compare across GOMAXPROCS: err %v", err)
	}
	if err := compare(pa, pa, &out); err != nil {
		t.Fatalf("compare of identical stamps: %v", err)
	}
}

// TestSelfTime checks the reducer's self time on overlapping children.
func TestSelfTime(t *testing.T) {
	recs := []record{
		{Kind: "span", Op: 1, ID: 1, Name: "replay", Start: 0, End: 100},
		{Kind: "span", Op: 1, ID: 2, Parent: 1, Name: "core.check", Start: 10, End: 30},
		{Kind: "span", Op: 1, ID: 3, Parent: 1, Name: "core.check", Start: 20, End: 50},
		{Kind: "span", Op: 1, ID: 4, Parent: 1, Name: "cq.eval", Start: 90, End: 120},
	}
	_, stats := reduce(recs)
	for _, s := range stats {
		if s.name == "replay" && s.selfUS != 0.05 {
			t.Fatalf("replay self time %v us, want 0.05 (50 ns)", s.selfUS)
		}
	}
}
