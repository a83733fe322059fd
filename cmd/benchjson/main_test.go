package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: ppnpart
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScaleGP/n100-4         	      33	  35159322 ns/op	     120 cut
BenchmarkScaleGP/n10000-4       	       3	 110000000 ns/op	  101254 cut	  524288 B/op	    1024 allocs/op
PASS
ok  	ppnpart	0.922s
pkg: ppnpart/internal/pstate
BenchmarkPStateMove-4   	12345678	        95.2 ns/op
PASS
ok  	ppnpart/internal/pstate	1.5s
`

func TestParse(t *testing.T) {
	entries, ctx, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(entries))
	}
	if ctx["goos"] != "linux" || ctx["cpu"] == "" {
		t.Fatalf("context not captured: %v", ctx)
	}
	if ctx["gomaxprocs"] != "4" {
		t.Fatalf("gomaxprocs not captured from the -N name suffix: %v", ctx)
	}
	e := entries[1]
	if e.Name != "ScaleGP/n10000" {
		t.Fatalf("name = %q (GOMAXPROCS suffix should be stripped)", e.Name)
	}
	if e.Pkg != "ppnpart" {
		t.Fatalf("pkg = %q", e.Pkg)
	}
	if e.Iterations != 3 {
		t.Fatalf("iterations = %d", e.Iterations)
	}
	for unit, want := range map[string]float64{
		"ns/op": 110000000, "cut": 101254, "B/op": 524288, "allocs/op": 1024,
	} {
		if got := e.Metrics[unit]; got != want {
			t.Fatalf("%s = %v, want %v", unit, got, want)
		}
	}
	if p := entries[2]; p.Pkg != "ppnpart/internal/pstate" || p.Metrics["ns/op"] != 95.2 {
		t.Fatalf("pkg header not tracked across packages: %+v", p)
	}
}

// A go test -cpu 1,2 run reports every benchmark twice: bare at width 1,
// suffixed -2 at width 2. Both widths must survive as distinct rows, the
// default (first) width under the bare name the baseline matches.
func TestParseKeepsEveryCPUWidth(t *testing.T) {
	const mixed = `pkg: ppnpart
BenchmarkScaleGP/n100000/batch         	       3	 900000000 ns/op	 1312313 cut
BenchmarkScaleGP/n100000/batch-2       	       3	 600000000 ns/op	 1312313 cut
pkg: ppnpart/internal/pstate
BenchmarkPStateMove     	12345678	        95.2 ns/op
BenchmarkPStateMove-2   	12345678	        96.0 ns/op
`
	entries, ctx, err := Parse(strings.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	want := []string{"ScaleGP/n100000/batch", "ScaleGP/n100000/batch-2", "PStateMove", "PStateMove-2"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("names = %q, want %q", names, want)
	}
	if entries[1].Metrics["ns/op"] != 600000000 || entries[1].Metrics["cut"] != 1312313 {
		t.Fatalf("width-2 row lost its metrics: %+v", entries[1])
	}
	if ctx["gomaxprocs"] != "1" {
		t.Fatalf("context = %v, want the default width's gomaxprocs 1", ctx)
	}

	// The baseline names the default-width rows only: it still matches,
	// and the extra width gets no speedup of its own.
	base := &File{Benchmarks: []Entry{
		{Name: "ScaleGP/n100000/batch", Metrics: map[string]float64{"ns/op": 1800000000, "cut": 1312313}},
		{Name: "PStateMove", Metrics: map[string]float64{"ns/op": 95.2}},
	}}
	out, err := Merge(entries, ctx, base, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Speedup) != 2 || out.Speedup["ScaleGP/n100000/batch"] != 2 {
		t.Fatalf("speedup = %v, want the two default-width rows only", out.Speedup)
	}
	if v := Gate(out, GateLimits{CutPct: 0}); len(v) != 0 {
		t.Fatalf("unchanged cuts failed the gate: %v", v)
	}

	// A run listing width 2 first makes width 2 the default: the bare
	// width-1 rows are the ones renamed.
	entries, ctx, err = Parse(strings.NewReader("BenchmarkPStateMove-2 	9	96 ns/op\nBenchmarkPStateMove 	9	95 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name != "PStateMove" || entries[1].Name != "PStateMove-1" ||
		ctx["gomaxprocs"] != "2" {
		t.Fatalf("entries = %+v, context = %v", entries, ctx)
	}
}

// go test omits the -N name suffix entirely at GOMAXPROCS=1, so a run
// whose benchmark lines all lack one is by definition single-proc — the
// context must say so rather than stay silent.
func TestParseInfersSingleProcWithoutSuffix(t *testing.T) {
	entries, ctx, err := Parse(strings.NewReader("BenchmarkScaleGP/n100 	3	100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "ScaleGP/n100" {
		t.Fatalf("entries = %+v", entries)
	}
	if ctx["gomaxprocs"] != "1" {
		t.Fatalf("gomaxprocs = %q, want inferred \"1\": %v", ctx["gomaxprocs"], ctx)
	}

	// No benchmark lines at all: nothing to infer from.
	_, ctx, err = Parse(strings.NewReader("goos: linux\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx["gomaxprocs"]; ok {
		t.Fatalf("gomaxprocs inferred from an entry-free run: %v", ctx)
	}
}

func TestMergeComputesSpeedup(t *testing.T) {
	cur, _, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	base := &File{Benchmarks: []Entry{{
		Name:    "ScaleGP/n10000",
		Metrics: map[string]float64{"ns/op": 220000000, "cut": 101254},
	}}}
	out, err := Merge(cur, nil, base, false)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.Speedup["ScaleGP/n10000"]
	if !ok {
		t.Fatal("no speedup computed for the shared benchmark")
	}
	if got < 1.99 || got > 2.01 {
		t.Fatalf("speedup = %v, want 2.0", got)
	}
	if _, ok := out.Speedup["ScaleGP/n100"]; ok {
		t.Fatal("speedup computed for a benchmark absent from the baseline")
	}
}

// A benchmark present in the baseline but absent from the new run must be
// a hard error: a renamed or deleted hot-path benchmark would otherwise
// silently drop out of the regression trail.
func TestMergeErrorsOnMissingBaselineBenchmark(t *testing.T) {
	cur, _, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	base := &File{Benchmarks: []Entry{
		{Name: "ScaleGP/n10000", Metrics: map[string]float64{"ns/op": 220000000}},
		{Name: "Vanished/x", Metrics: map[string]float64{"ns/op": 1}},
		{Name: "AlsoGone", Metrics: map[string]float64{"ns/op": 2}},
	}}
	_, err = Merge(cur, nil, base, false)
	if err == nil {
		t.Fatal("missing baseline benchmarks must fail the merge")
	}
	for _, name := range []string{"Vanished/x", "AlsoGone"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name the missing benchmark %s", err, name)
		}
	}
	if strings.Contains(err.Error(), "ScaleGP/n10000") {
		t.Errorf("error %q names a benchmark that is present", err)
	}

	// The deliberate opt-out keeps the old skip behavior.
	out, err := Merge(cur, nil, base, true)
	if err != nil {
		t.Fatalf("allow-missing merge failed: %v", err)
	}
	if _, ok := out.Speedup["ScaleGP/n10000"]; !ok {
		t.Fatal("allow-missing merge lost the shared benchmark's speedup")
	}
}

// TestMergeBaselineAddsNewBenchmark pins the first-run-after-adding-a-
// benchmark path: a current entry absent from the baseline (e.g. the
// freshly added ScaleGP/n1000000) must land in the refreshed baseline
// instead of erroring or vanishing, while covered entries take the
// current numbers and uncovered baseline entries survive.
func TestMergeBaselineAddsNewBenchmark(t *testing.T) {
	cur := []Entry{
		{Name: "ScaleGP/n10000", Metrics: map[string]float64{"ns/op": 90, "cut": 80}},
		{Name: "ScaleGP/n1000000/stream", Metrics: map[string]float64{"ns/op": 500, "cut": 7}},
	}
	base := &File{
		Context: map[string]string{"cpu": "old"},
		Benchmarks: []Entry{
			{Name: "ScaleGP/n10000", Metrics: map[string]float64{"ns/op": 100, "cut": 80}},
			{Name: "PStateMove", Metrics: map[string]float64{"ns/op": 95}},
		},
	}
	out := MergeBaseline(cur, map[string]string{"cpu": "new"}, base)
	if len(out.Benchmarks) != 3 {
		t.Fatalf("refreshed baseline has %d entries, want 3: %+v", len(out.Benchmarks), out.Benchmarks)
	}
	if out.Benchmarks[0].Name != "ScaleGP/n10000" || out.Benchmarks[0].Metrics["ns/op"] != 90 {
		t.Fatalf("covered entry did not take the current numbers: %+v", out.Benchmarks[0])
	}
	if out.Benchmarks[1].Name != "PStateMove" || out.Benchmarks[1].Metrics["ns/op"] != 95 {
		t.Fatalf("uncovered baseline entry not preserved in place: %+v", out.Benchmarks[1])
	}
	if out.Benchmarks[2].Name != "ScaleGP/n1000000/stream" {
		t.Fatalf("new benchmark not appended: %+v", out.Benchmarks[2])
	}
	if out.Context["cpu"] != "new" {
		t.Fatalf("context = %v, want the current run's", out.Context)
	}
}

// Without a baseline the refreshed file is just the current run — the
// bootstrap path for a brand-new bench_baseline.json.
func TestMergeBaselineBootstrap(t *testing.T) {
	cur := []Entry{{Name: "A", Metrics: map[string]float64{"ns/op": 1}}}
	out := MergeBaseline(cur, nil, nil)
	if len(out.Benchmarks) != 1 || out.Benchmarks[0].Name != "A" {
		t.Fatalf("bootstrap baseline = %+v", out.Benchmarks)
	}
}

func TestParseRejectsGarbageValue(t *testing.T) {
	_, _, err := Parse(strings.NewReader("BenchmarkX-1 10 zz ns/op\n"))
	if err == nil {
		t.Fatal("expected error for non-numeric value")
	}
}

// noGates is the all-disabled limit set; the cut gate's inactive value is
// negative because 0 is a meaningful (exact) threshold for it.
func noGates() GateLimits { return GateLimits{CutPct: -1} }

func gateFixture() *File {
	return &File{
		Benchmarks: []Entry{
			{Name: "ScaleGP/n10000", Metrics: map[string]float64{"ns/op": 1_100_000, "allocs/op": 130, "cut": 105}},
			{Name: "OnlyCurrent", Metrics: map[string]float64{"ns/op": 9_990_000, "allocs/op": 999, "cut": 999}},
		},
		Baseline: []Entry{
			{Name: "ScaleGP/n10000", Metrics: map[string]float64{"ns/op": 1_000_000, "allocs/op": 100, "cut": 100}},
			{Name: "OnlyBaseline", Metrics: map[string]float64{"ns/op": 1_000_000, "allocs/op": 1, "cut": 1}},
		},
	}
}

// TestGateNsFloorExemptsMicroBenchmarks pins the noise guard: a benchmark
// whose baseline ns/op sits under the floor escapes the ns gate entirely
// (a 1x smoke run of a nanosecond-scale bench measures only overhead),
// while its alloc and cut gates still apply.
func TestGateNsFloorExemptsMicroBenchmarks(t *testing.T) {
	out := &File{
		Benchmarks: []Entry{{Name: "PStateMove", Metrics: map[string]float64{"ns/op": 6130, "allocs/op": 9, "cut": 120}}},
		Baseline:   []Entry{{Name: "PStateMove", Metrics: map[string]float64{"ns/op": 1052, "allocs/op": 5, "cut": 100}}},
	}
	if got := Gate(out, GateLimits{NsPct: 400, CutPct: -1}); len(got) != 0 {
		t.Fatalf("sub-floor benchmark ns-gated: %v", got)
	}
	got := Gate(out, GateLimits{NsPct: 400, AllocsPct: 20, CutPct: 0})
	if len(got) != 2 {
		t.Fatalf("alloc+cut gates must still apply below the ns floor, got %v", got)
	}
	joined := strings.Join(got, "\n")
	if !strings.Contains(joined, "allocs/op") || !strings.Contains(joined, "cut") {
		t.Fatalf("violations %q missing allocs/op or cut", joined)
	}
}

func TestGateFlagsRegressionsPerMetric(t *testing.T) {
	out := gateFixture()
	// ns/op is 10% over, allocs/op 30% over, cut 5% over.
	lim := func(mut func(*GateLimits)) GateLimits {
		l := noGates()
		mut(&l)
		return l
	}
	cases := []struct {
		limits GateLimits
		want   int
		names  []string
	}{
		{noGates(), 0, nil}, // all gates disabled
		{lim(func(l *GateLimits) { l.NsPct = 15 }), 0, nil},                       // within the ns budget
		{lim(func(l *GateLimits) { l.NsPct = 5 }), 1, []string{"ns/op"}},          // ns regression caught
		{lim(func(l *GateLimits) { l.AllocsPct = 20 }), 1, []string{"allocs/op"}}, // alloc regression caught
		{lim(func(l *GateLimits) { l.NsPct = 5; l.AllocsPct = 20 }), 2, []string{"ns/op", "allocs/op"}},
		{lim(func(l *GateLimits) { l.NsPct = 50; l.AllocsPct = 50 }), 0, nil}, // generous budgets pass
		{lim(func(l *GateLimits) { l.CutPct = 0 }), 1, []string{"cut"}},       // exact cut gate catches any increase
		{lim(func(l *GateLimits) { l.CutPct = 4.9 }), 1, []string{"cut"}},     // tight cut budget exceeded
		{lim(func(l *GateLimits) { l.CutPct = 10 }), 0, nil},                  // cut within budget
		{lim(func(l *GateLimits) { l.NsPct = 5; l.CutPct = 0 }), 2, []string{"ns/op", "cut"}},
	}
	for _, c := range cases {
		got := Gate(out, c.limits)
		if len(got) != c.want {
			t.Fatalf("Gate(%+v) = %v, want %d violations", c.limits, got, c.want)
		}
		joined := strings.Join(got, "\n")
		for _, name := range c.names {
			if !strings.Contains(joined, name) {
				t.Errorf("Gate(%+v) violations %q do not name %s", c.limits, joined, name)
			}
		}
		if strings.Contains(joined, "Only") {
			t.Errorf("Gate(%+v) flagged a benchmark missing from one side: %q", c.limits, joined)
		}
	}
}

func TestGateCutExactThreshold(t *testing.T) {
	out := gateFixture()
	// Equal cut must pass the exact (0%) gate; one unit over must fail.
	out.Benchmarks[0].Metrics["cut"] = 100
	if got := Gate(out, GateLimits{CutPct: 0}); len(got) != 0 {
		t.Fatalf("equal cut flagged by the exact gate: %v", got)
	}
	out.Benchmarks[0].Metrics["cut"] = 101
	if got := Gate(out, GateLimits{CutPct: 0}); len(got) != 1 {
		t.Fatalf("one-unit cut regression not caught by the exact gate: %v", got)
	}
}

func TestGateImprovementsPass(t *testing.T) {
	out := gateFixture()
	out.Benchmarks[0].Metrics = map[string]float64{"ns/op": 50, "allocs/op": 40, "cut": 90}
	if got := Gate(out, GateLimits{NsPct: 1, AllocsPct: 1, CutPct: 0}); len(got) != 0 {
		t.Fatalf("improvement flagged as regression: %v", got)
	}
}

func TestGateIgnoresMissingMetrics(t *testing.T) {
	out := &File{
		Benchmarks: []Entry{{Name: "NoMem", Metrics: map[string]float64{"ns/op": 100}}},
		Baseline:   []Entry{{Name: "NoMem", Metrics: map[string]float64{"ns/op": 100}}},
	}
	// allocs/op and cut absent on both sides: those gates have nothing to
	// say even when armed.
	if got := Gate(out, GateLimits{AllocsPct: 1, CutPct: 0}); len(got) != 0 {
		t.Fatalf("missing metric flagged: %v", got)
	}
}
