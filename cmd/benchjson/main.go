// Command benchjson converts `go test -bench` output into a JSON
// benchmark-trajectory file. It parses the standard benchmark lines
// (iterations, ns/op, B/op, allocs/op) together with any custom
// b.ReportMetric values the suite attaches (cut, feasibility, makespan,
// ...), and can merge a checked-in baseline file so the emitted JSON
// carries before/after numbers and the speedup per benchmark — the
// regression trail for the partitioner's hot paths.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH.json
//	go test -bench ScaleGP . | benchjson -baseline old.json -o BENCH.json
//
// With -gate-ns / -gate-allocs / -gate-cut it doubles as a CI regression
// gate: after writing the JSON it compares every benchmark present in
// both runs against the baseline and exits non-zero when ns/op,
// allocs/op or the reported cut regressed beyond the given percentage.
// The cut gate accepts 0 as an exact threshold — the solver is
// deterministic, so any cut increase is a real quality regression.
//
//	go test -bench ScaleGP -benchmem . | benchjson -baseline old.json -gate-allocs 20 -o BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one parsed benchmark result.
type Entry struct {
	// Name is the benchmark name without the Benchmark prefix, e.g.
	// "ScaleGP/n10000". A row at the run's default width (see Parse)
	// drops the -GOMAXPROCS suffix; a row at any other width keeps it,
	// e.g. "ScaleGP/n10000-2".
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in.
	Pkg string `json:"pkg,omitempty"`
	// Iterations is the b.N the reported averages cover.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value: ns/op, B/op, allocs/op, and any custom
	// ReportMetric units (cut, feasible, ...).
	Metrics map[string]float64 `json:"metrics"`
}

// File is the emitted JSON document.
type File struct {
	// Context echoes the go test header (goos, goarch, cpu, pkg list)
	// plus the run's default gomaxprocs, recovered from the benchmark
	// names' -N suffix (it doubles as the solver pool's default width).
	Context map[string]string `json:"context,omitempty"`
	// Benchmarks are the parsed results of this run.
	Benchmarks []Entry `json:"benchmarks"`
	// Baseline carries the benchmarks of the merged baseline file, when
	// one was given.
	Baseline []Entry `json:"baseline,omitempty"`
	// BaselineContext echoes the baseline's context.
	BaselineContext map[string]string `json:"baseline_context,omitempty"`
	// Speedup maps benchmark name -> baseline ns/op ÷ current ns/op for
	// every benchmark present in both runs.
	Speedup map[string]float64 `json:"speedup,omitempty"`
}

// benchLine matches "BenchmarkName-4   	 123	 456 ns/op	 7 extra/op ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S*)\s+(\d+)\s+(.*)$`)

// gomaxprocsSuffix matches the trailing -N GOMAXPROCS count of a name.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` output and returns the entries plus the
// header context. Non-benchmark lines (PASS, ok, warnings) are skipped.
//
// go test names a row "Name-N" when it ran at GOMAXPROCS N != 1. The
// first row's width is the run's default: rows at that width drop the
// suffix, so a single-width run keeps the names bench_baseline.json
// matches. Rows at any other width (go test -cpu 1,2, or runs at several
// widths concatenated) keep "-N", width 1 included, as rows of their own.
func Parse(r io.Reader) ([]Entry, map[string]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var entries []Entry
	ctx := map[string]string{}
	pkg := ""
	defaultWidth := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		// Header lines: "goos: linux", "pkg: ppnpart", "cpu: ...".
		if key, val, ok := strings.Cut(line, ": "); ok && !strings.HasPrefix(line, "Benchmark") {
			switch key {
			case "goos", "goarch", "cpu":
				ctx[key] = val
				continue
			case "pkg":
				pkg = val
				continue
			}
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		width := "1"
		if sfx := gomaxprocsSuffix.FindString(name); sfx != "" {
			width = sfx[1:]
			name = strings.TrimSuffix(name, sfx)
		}
		if defaultWidth == "" {
			defaultWidth = width
		}
		if width != defaultWidth {
			name += "-" + width
		}
		e := Entry{Name: name, Pkg: pkg, Iterations: iters, Metrics: map[string]float64{}}
		// The tail is "value unit" pairs: "123 ns/op  7 B/op  2 allocs/op".
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("benchjson: bad value %q in %q", fields[i], line)
			}
			e.Metrics[fields[i+1]] = v
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	// The default width is the run's GOMAXPROCS (and so the default
	// solver pool width); the go test header doesn't carry it, so capture
	// it into the context where cross-machine baseline comparisons can
	// see it. A name without a suffix ran at width 1.
	if defaultWidth != "" {
		ctx["gomaxprocs"] = defaultWidth
	}
	return entries, ctx, nil
}

// Merge attaches a baseline to the current results and computes speedups.
// Every benchmark in the baseline must also appear in the current run:
// a silent disappearance would make the trajectory file look complete
// while a regression (a renamed or deleted hot-path benchmark) goes
// untracked. Runs that deliberately narrow the benchmark pattern set
// allowMissing to skip absent baseline entries instead.
func Merge(cur []Entry, curCtx map[string]string, base *File, allowMissing bool) (*File, error) {
	out := &File{Context: curCtx, Benchmarks: cur}
	if base == nil {
		return out, nil
	}
	out.Baseline = base.Benchmarks
	out.BaselineContext = base.Context
	curByName := map[string]bool{}
	for _, e := range cur {
		curByName[e.Name] = true
	}
	var missing []string
	for _, b := range base.Benchmarks {
		if !curByName[b.Name] {
			missing = append(missing, b.Name)
		}
	}
	if len(missing) > 0 && !allowMissing {
		sort.Strings(missing)
		return nil, fmt.Errorf("baseline benchmarks missing from the current run: %s "+
			"(re-run with a pattern covering them, or pass -allow-missing for a deliberately narrowed run)",
			strings.Join(missing, ", "))
	}
	byName := map[string]Entry{}
	for _, e := range base.Benchmarks {
		byName[e.Name] = e
	}
	speedup := map[string]float64{}
	for _, e := range cur {
		b, ok := byName[e.Name]
		if !ok {
			continue
		}
		bn, cn := b.Metrics["ns/op"], e.Metrics["ns/op"]
		if bn > 0 && cn > 0 {
			speedup[e.Name] = bn / cn
		}
	}
	if len(speedup) > 0 {
		out.Speedup = speedup
	}
	return out, nil
}

// MergeBaseline folds the current run into the baseline file, producing
// the refreshed baseline to check in: entries present in both keep the
// baseline's position but take the current numbers, entries new to this
// run (a freshly added benchmark, e.g. the first run after adding
// ScaleGP/n1000000) are appended in run order, and baseline entries the
// current run did not cover (a deliberately narrowed -allow-missing
// smoke) are preserved untouched rather than dropped. The context is the
// current run's when it captured one, else the baseline's.
func MergeBaseline(cur []Entry, curCtx map[string]string, base *File) *File {
	out := &File{Context: curCtx}
	curByName := map[string]Entry{}
	for _, e := range cur {
		curByName[e.Name] = e
	}
	taken := map[string]bool{}
	if base != nil {
		if len(out.Context) == 0 {
			out.Context = base.Context
		}
		for _, b := range base.Benchmarks {
			if e, ok := curByName[b.Name]; ok {
				out.Benchmarks = append(out.Benchmarks, e)
				taken[b.Name] = true
			} else {
				out.Benchmarks = append(out.Benchmarks, b)
			}
		}
	}
	for _, e := range cur {
		if !taken[e.Name] {
			out.Benchmarks = append(out.Benchmarks, e)
		}
	}
	return out
}

// GateLimits are the per-metric regression thresholds of -gate-ns,
// -gate-allocs and -gate-cut, in percent over the baseline value. For
// ns/op and allocs/op 0 disables the metric (timing and allocator noise
// make an exact gate meaningless). The cut is deterministic, so its gate
// is stricter: negative disables, and 0 is a valid threshold demanding
// the cut never exceeds the baseline at all.
type GateLimits struct {
	NsPct     float64
	AllocsPct float64
	CutPct    float64
}

func (g GateLimits) active() bool { return g.NsPct > 0 || g.AllocsPct > 0 || g.CutPct >= 0 }

// nsGateFloor exempts benchmarks whose baseline ns/op sits below 100µs
// from the ns gate: at the 1x–3x benchtimes CI smoke runs use, such
// measurements are dominated by timer overhead and warm-up, so gating
// them only produces flakes. Allocation and cut gates still apply — both
// are deterministic at any benchtime.
const nsGateFloor = 100_000

// Gate compares every benchmark present in both runs against the
// baseline and returns one violation string per metric that regressed
// beyond its threshold. Benchmarks missing on either side are not
// gate-relevant (Merge already polices baseline coverage).
func Gate(out *File, limits GateLimits) []string {
	byName := map[string]Entry{}
	for _, b := range out.Baseline {
		byName[b.Name] = b
	}
	check := func(e Entry, metric string, pct float64) (string, bool) {
		b, ok := byName[e.Name]
		if !ok {
			return "", false
		}
		base, cur := b.Metrics[metric], e.Metrics[metric]
		if base <= 0 || cur <= 0 {
			return "", false
		}
		limit := base * (1 + pct/100)
		if cur <= limit {
			return "", false
		}
		return fmt.Sprintf("%s %s regressed %.1f%% over baseline (%.0f -> %.0f, limit +%g%%)",
			e.Name, metric, (cur/base-1)*100, base, cur, pct), true
	}
	var violations []string
	for _, e := range out.Benchmarks {
		if limits.NsPct > 0 {
			// Skip noise-dominated micro-benchmarks: below the floor a
			// low-iteration smoke run measures timer overhead and cache
			// warm-up, not the code, and the gate would flap.
			if base, ok := byName[e.Name]; !ok || base.Metrics["ns/op"] >= nsGateFloor {
				if v, bad := check(e, "ns/op", limits.NsPct); bad {
					violations = append(violations, v)
				}
			}
		}
		if limits.AllocsPct > 0 {
			if v, bad := check(e, "allocs/op", limits.AllocsPct); bad {
				violations = append(violations, v)
			}
		}
		// The cut gate accepts 0 as an exact no-regression threshold: the
		// solver is deterministic, so any cut increase is a real quality
		// regression, not noise.
		if limits.CutPct >= 0 {
			if v, bad := check(e, "cut", limits.CutPct); bad {
				violations = append(violations, v)
			}
		}
	}
	return violations
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "baseline JSON to merge (computes speedups)")
		outPath      = flag.String("o", "", "output file (default stdout)")
		inPath       = flag.String("i", "", "bench output to parse (default stdin)")
		allowMissing = flag.Bool("allow-missing", false,
			"tolerate baseline benchmarks absent from the current run (narrowed smoke runs)")
		writeBaseline = flag.String("write-baseline", "",
			"after merging, write the refreshed baseline (current numbers folded into -baseline; "+
				"new benchmarks appended, uncovered baseline entries preserved) to this file")
		gateNs = flag.Float64("gate-ns", 0,
			"fail (exit 1) when any benchmark's ns/op exceeds its baseline by more than this percentage; 0 disables")
		gateAllocs = flag.Float64("gate-allocs", 0,
			"fail (exit 1) when any benchmark's allocs/op exceeds its baseline by more than this percentage; 0 disables")
		gateCut = flag.Float64("gate-cut", -1,
			"fail (exit 1) when any benchmark's cut metric exceeds its baseline by more than this percentage; "+
				"0 demands no regression at all (the cut is deterministic), negative disables")
	)
	flag.Parse()
	limits := GateLimits{NsPct: *gateNs, AllocsPct: *gateAllocs, CutPct: *gateCut}
	if err := run(*inPath, *baselinePath, *outPath, *writeBaseline, *allowMissing, limits); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(inPath, baselinePath, outPath, writeBaseline string, allowMissing bool, limits GateLimits) error {
	in := io.Reader(os.Stdin)
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	entries, ctx, err := Parse(in)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	var base *File
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			return err
		}
		base = &File{}
		if err := json.Unmarshal(raw, base); err != nil {
			return fmt.Errorf("baseline %s: %v", baselinePath, err)
		}
	}
	out, err := Merge(entries, ctx, base, allowMissing)
	if err != nil {
		return err
	}
	if limits.active() && base == nil {
		return fmt.Errorf("-gate-ns/-gate-allocs/-gate-cut need a -baseline to compare against")
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	// Write the trajectory file before gating: a failed gate should still
	// leave the evidence on disk.
	if outPath == "" {
		if _, err := os.Stdout.Write(enc); err != nil {
			return err
		}
	} else if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		return err
	}
	if writeBaseline != "" {
		refreshed, err := json.MarshalIndent(MergeBaseline(entries, ctx, base), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(writeBaseline, append(refreshed, '\n'), 0o644); err != nil {
			return err
		}
	}
	if violations := Gate(out, limits); len(violations) > 0 {
		return fmt.Errorf("performance gate failed:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}
