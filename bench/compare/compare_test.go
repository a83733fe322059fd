package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python: statistics.quantiles(data, n=4).
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func bound(b float64) *float64 { return &b }

// around returns n values spread evenly within ±rel of center.
func around(center, rel float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center * (1 - rel + 2*rel*float64(i)/float64(max(1, n-1)))
	}
	return out
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: bound(0.1)}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: bound(0.1)}
	layer := metricSpec{Name: "engine.refine_ms", Better: "lower"}
	cut := metricSpec{Name: "cut", Better: "lower", Bound: bound(0)}
	cases := []struct {
		name      string
		spec      metricSpec
		base, cur []float64
		want      string
	}{
		{"unchanged", lower, around(100, 0.01, 10), around(101, 0.01, 10), verdictSame},
		{"median worse than bound", lower, around(100, 0.01, 10), around(120, 0.01, 10), verdictRegression},
		{"throughput drop", higher, around(100, 0.01, 10), around(80, 0.01, 10), verdictRegression},
		{"spread wider than bound", lower, around(100, 0.5, 10), around(105, 0.5, 10), verdictUnresolved},
		{"noisy but every run better", lower, around(100, 0.3, 10), around(40, 0.3, 10), verdictBetter},
		{"gain over ten pairs", lower, around(100, 0.01, 10), around(90, 0.01, 10), verdictGain},
		{"too few pairs for a gain", lower, around(100, 0.01, 9), around(90, 0.01, 9), verdictSame},
		{"gain within base spread", lower, around(100, 0.07, 10), around(98, 0.01, 10), verdictSame},
		{"per-layer metric", layer, around(100, 0.01, 10), around(300, 0.01, 10), verdictInfo},
		{"zero bound, unchanged", cut, around(100, 0, 5), around(100, 0, 5), verdictSame},
		{"zero bound, worse by 1%", cut, around(100, 0, 5), around(101, 0, 5), verdictRegression},
		{"zero bound, better in every pair", cut, around(100, 0, 10), around(99, 0, 10), verdictGain},
	}
	for _, c := range cases {
		if got := verdict(c.spec, summarize(c.base), summarize(c.cur)); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestFailedShareMayNotRise(t *testing.T) {
	if v := failedVerdict(summary{tried: 100}, summary{tried: 100, failed: 1}); !strings.HasPrefix(v, verdictRegression) {
		t.Errorf("rise in failures: verdict %q", v)
	}
	if v := failedVerdict(summary{tried: 100, failed: 2}, summary{tried: 100, failed: 1}); v != verdictSame {
		t.Errorf("fall in failures: verdict %q", v)
	}
}

const testBench = `{"end_to_end": [
  {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
  {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
 "per_layer": [{"name": "engine.refine_ms", "unit": "ms", "better": "lower"}]}`

// runLines returns one tagged -workload all line per value: an untraced
// run reports it as latency_p50_ms (a negative value leaves the metric
// out), a traced run as the per-layer engine.refine_ms.
func runLines(workload string, trace int, vals []float64) []string {
	var lines []string
	for _, v := range vals {
		m := fmt.Sprintf(`"engine.refine_ms":{"value":%g,"unit":"ms"}`, v)
		if trace == 0 {
			m = `"setup_s":{"value":1,"unit":"s"}`
			if v >= 0 {
				m += fmt.Sprintf(`,"latency_p50_ms":{"value":%g,"unit":"ms"}`, v)
			}
		}
		lines = append(lines, fmt.Sprintf(`{"workload":%q,"seed":1,"trace":%d,"result":`+
			`{"correct":true,"attempted":5,"failed":0,"metrics":{%s}}}`, workload, trace, m))
	}
	return lines
}

func writeSet(t *testing.T, dir string, lines ...[]string) string {
	t.Helper()
	var all []string
	for _, l := range lines {
		all = append(all, l...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "runs.jsonl"), []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestMainCodeExitsOnRegression(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(testBench), 0o644); err != nil {
		t.Fatal(err)
	}
	set := func(name string, lines ...[]string) string { return writeSet(t, filepath.Join(dir, name), lines...) }
	base := set("base", runLines("w", 0, around(100, 0.01, 5)), runLines("v", 0, around(10, 0.01, 5)))
	partial := runLines("w", 0, around(100, 0.01, 5))
	partial[2] = runLines("w", 0, []float64{-1})[0]
	cases := []struct {
		name string
		sets []string
		want int
	}{
		{"same code", []string{base, set("same", runLines("w", 0, around(100.5, 0.01, 5)), runLines("v", 0, around(10, 0.01, 5)))}, 0},
		{"slower code", []string{base, set("slow", runLines("w", 0, around(130, 0.01, 5)), runLines("v", 0, around(10, 0.01, 5)))}, 1},
		{"a workload crashed", []string{base, set("crashed", runLines("w", 0, around(100, 0.01, 5)))}, 1},
		{"fewer runs", []string{base, set("fewer", runLines("w", 0, around(100, 0.01, 4)), runLines("v", 0, around(10, 0.01, 5)))}, 1},
		{"a run lacks a metric", []string{base, set("partial", partial, runLines("v", 0, around(10, 0.01, 5)))}, 1},
		{"mixed traced and untraced", []string{base, set("mixed", runLines("w", 0, around(100, 0.01, 4)), runLines("w", 1, []float64{5}))}, 2},
		{"traced against untraced", []string{base, set("traced", runLines("w", 1, around(100, 0.01, 5)))}, 2},
		{"steady set", []string{base}, 0},
		{"set lacking a metric", []string{set("partial-only", partial)}, 1},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := mainCode(append([]string{"-bench", bench}, c.sets...), &out, &out); code != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.want, out.String())
		}
	}
}

func TestTracedSetsListPerLayerMetrics(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(testBench), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeSet(t, filepath.Join(dir, "base"), runLines("w", 1, around(100, 0.01, 5)))
	slow := writeSet(t, filepath.Join(dir, "slow"), runLines("w", 1, around(300, 0.01, 5)))
	var out bytes.Buffer
	if code := mainCode([]string{"-bench", bench, base, slow}, &out, &out); code != 0 {
		t.Errorf("per-layer metrics have no bound, yet exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "engine.refine_ms") {
		t.Errorf("engine.refine_ms not listed:\n%s", out.String())
	}
}

func TestBareResultLinesTakeWorkloadFromFileName(t *testing.T) {
	dir := t.TempDir()
	line := `{"correct":true,"attempted":1,"failed":0,"metrics":{"latency_p50_ms":{"value":1,"unit":"ms"}}}`
	if err := os.WriteFile(filepath.Join(dir, "paper_small.3.json"), []byte("progress\n"+line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := loadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(set["paper_small"]) != 1 {
		t.Fatalf("runs by workload: %v", set)
	}
}
