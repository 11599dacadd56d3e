package mine

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mdm"
)

// TestMineGolden pins Mine's whole output — Stats and, per emitted
// constraint, its String(), signature, support, confidence and
// Validated flag — on a grid of 180 runs: evidence seeds 1–30, with
// 0 and 2 supported international customers, under three option sets
// (defaults; MinConfidence 0.6 with MinSupport 0.25, whose survivors
// include candidates violated on some pair; and OracleClosure). The
// evidence has the shape relperf's analyze workload mines: 4 mdm pairs
// of 8 domestic and 3 international customers, saturated support and
// 2 unregistered domestic customers. testdata/mine_golden.json was
// recorded on the miner that scored candidates through string-keyed
// answer and p(Dm) sets; regenerate it with
//
//	go test ./internal/mine -run TestMineGolden -update-golden
//
// only when a change to the mined output is intended.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/mine_golden.json from the current miner")

const goldenPath = "testdata/mine_golden.json"

type goldenRun struct {
	Name    string        `json:"name"`
	Stats   Stats         `json:"stats"`
	Emitted []goldenMined `json:"emitted"`
}

type goldenMined struct {
	Constraint string  `json:"constraint"`
	Signature  string  `json:"signature"`
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
	Validated  bool    `json:"validated"`
}

func goldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	opts := []struct {
		name string
		opt  Options
	}{
		{"defaults", Options{}},
		{"conf0.6-supp0.25", Options{MinConfidence: 0.6, MinSupport: 0.25}},
		{"closure", Options{Oracle: OracleClosure}},
	}
	var out []goldenRun
	for seed := int64(1); seed <= 30; seed++ {
		for _, intl := range []int{0, 2} {
			cfg := mdm.DefaultConfig()
			cfg.Seed = seed
			cfg.DomesticCustomers = 8
			cfg.InternationalCustomers = 3
			cfg.SaturateSupport = true
			cfg.UnregisteredDomestic = 2
			cfg.SupportInternational = intl
			var pairs []Pair
			for _, s := range mdm.Evidence(cfg, 4) {
				pairs = append(pairs, Pair{D: s.D, Dm: s.Dm})
			}
			for _, o := range opts {
				res, err := Mine(context.Background(), pairs, o.opt)
				if err != nil {
					t.Fatalf("seed %d intl %d %s: %v", seed, intl, o.name, err)
				}
				run := goldenRun{Name: fmt.Sprintf("seed=%d/intl=%d/%s", seed, intl, o.name), Stats: res.Stats}
				for _, m := range res.Mined {
					run.Emitted = append(run.Emitted, goldenMined{
						Constraint: m.Constraint.String(),
						Signature:  m.Signature,
						Support:    m.Support,
						Confidence: m.Confidence,
						Validated:  m.Validated,
					})
				}
				out = append(out, run)
			}
		}
	}
	return out
}

func TestMineGolden(t *testing.T) {
	got := goldenRuns(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			g, _ := json.MarshalIndent(got[i], "", "  ")
			w, _ := json.MarshalIndent(want[i], "", "  ")
			t.Errorf("%s diverges from the golden mining output:\ngot  %s\nwant %s", want[i].Name, g, w)
		}
	}
}
