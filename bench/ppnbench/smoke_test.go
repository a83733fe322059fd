package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// smokeScale runs every workload's code on inputs small enough for a unit
// test while still reaching each layer the full workload exercises (the
// batch threshold is lowered so the small multilevel graph batch-refines).
var smokeScale = scale{
	multilevelN:    3000,
	batchThreshold: 1000,
	fanoutProcs:    400,
	streamN:        5000,
	ppndN:          200,
	ppndPool:       8,
	ppndWarm:       4,
	minOps:         1,
}

type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []listedMetric `json:"end_to_end"`
	PerLayer []listedMetric `json:"per_layer"`
}

type listedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchDef(t *testing.T) benchDef {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchDef
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	d := loadBenchDef(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, ppnbench has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, ppnbench %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestCutDoesNotDependOnSeed pins what lets cut's bound be 0: every
// workload measures it on instances the seed does not change.
func TestCutDoesNotDependOnSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var cuts []float64
			for _, seed := range []int64{1, 2} {
				r := newRun(seed, 300*time.Millisecond, false, smokeScale)
				res, err := execute(w, r)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("seed %d: %d of %d operations failed; first: %v", seed, res.Failed, res.Attempted, r.firstFail)
				}
				cuts = append(cuts, res.Metrics["cut"].Value)
			}
			if cuts[0] != cuts[1] || cuts[0] <= 0 {
				t.Errorf("cut %v at seed 1, %v at seed 2; want equal and positive", cuts[0], cuts[1])
			}
		})
	}
}

// TestSmokeEveryWorkload runs each workload, untraced and traced, on tiny
// inputs: every output must check out, and the result must carry exactly
// the metrics BENCHMARK.json lists for the mode, with the listed units.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := loadBenchDef(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			want := d.EndToEnd
			if trace {
				name, want = w.name+"/traced", d.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				window := time.Second
				if w.name == "ppnd_mix" {
					window = 2 * time.Second
				}
				r := newRun(1, window, trace, smokeScale)
				res, err := execute(w, r)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("%d of %d operations failed; first: %v", res.Failed, res.Attempted, r.firstFail)
				}
				listed := map[string]string{}
				for _, m := range want {
					listed[m.Name] = m.Unit
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s listed but not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s emitted in %q, listed in %q", m.Name, got.Unit, m.Unit)
					}
				}
				for n := range res.Metrics {
					if _, ok := listed[n]; !ok {
						t.Errorf("%s emitted but not listed", n)
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil {
					t.Fatal(err)
				}
				var got []string
				for k := range keys {
					got = append(got, k)
				}
				sort.Strings(got)
				if len(got) != 4 || got[0] != "attempted" || got[1] != "correct" || got[2] != "failed" || got[3] != "metrics" {
					t.Errorf("result keys %v, want attempted correct failed metrics", got)
				}
			})
		}
	}
}
