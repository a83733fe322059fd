// Command compare applies the benchmark's acceptance rules to ppnbench
// results.
//
//	compare [-bench BENCHMARK.json] BASE [NEW]
//
// BASE and NEW are result files or directories of them. A file holds
// ppnbench output lines: the tagged lines of -workload all, or bare result
// lines, whose workload is then the file name up to its first ".". All runs
// of one workload in a set must be of one kind, traced or untraced.
//
// With one set, compare reports each metric's median, quartiles and spread
// against its bound, and exits 1 when an end-to-end spread (setup_s aside)
// exceeds its bound or an untraced run lacks an end-to-end metric. With
// two, it gives each (workload, metric) pair a verdict and exits 1 on any
// regression: a median worse than its bound allows, a rise in the share of
// failed operations, or runs and end-to-end metrics that BASE has and NEW
// lacks. Per-layer metrics, present only in traced runs, get no verdict.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// runResult is one ppnbench result line.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`

	traced bool // a --trace 1 run, which carries the per-layer metrics
}

// resultSet maps a workload to its runs, in file-name then line order;
// run i of two sets forms pair i.
type resultSet map[string][]runResult

func loadSet(path string) (resultSet, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if e.Type().IsRegular() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
	}
	set := resultSet{}
	for _, f := range files {
		if err := loadFile(f, set); err != nil {
			return nil, err
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return set, nil
}

func loadFile(path string, set resultSet) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fallback, _, _ := strings.Cut(filepath.Base(path), ".")
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var tagged struct {
			Workload string          `json:"workload"`
			Trace    int             `json:"trace"`
			Result   json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(line), &tagged); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		workload, raw := tagged.Workload, tagged.Result
		if workload == "" {
			workload, raw = fallback, json.RawMessage(line)
		}
		var r runResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if r.Metrics == nil {
			continue
		}
		if tagged.Workload != "" {
			r.traced = tagged.Trace == 1
		} else {
			// A bare line does not name its mode; every untraced run
			// carries setup_s and no traced run does.
			_, untraced := r.Metrics["setup_s"]
			r.traced = !untraced
		}
		if prev := set[workload]; len(prev) > 0 && prev[0].traced != r.traced {
			return fmt.Errorf("%s: workload %s mixes traced and untraced runs", path, workload)
		}
		set[workload] = append(set[workload], r)
	}
	return sc.Err()
}

// values collects one metric across runs; ok is false when a run lacks it.
func values(runs []runResult, name string) ([]float64, bool) {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, false
		}
		out = append(out, m.Value)
	}
	return out, true
}

func failures(runs []runResult) summary {
	var s summary
	for _, r := range runs {
		s.tried += r.Attempted
		s.failed += r.Failed
		if !r.Correct && r.Failed == 0 {
			s.failed++ // an incorrect run counts even when it named no failure
		}
	}
	return s
}

func workloads(sets ...resultSet) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range sets {
		for w := range s {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	sort.Strings(out)
	return out
}

func fmtQ(s summary) string {
	return fmt.Sprintf("%.6g [%.6g %.6g]", s.med, s.q1, s.q3)
}

// required reports whether every run must carry the metric: an end-to-end
// metric (the only kind with a bound) in an untraced run.
func required(spec metricSpec, runs []runResult) bool {
	return spec.Bound != nil && !runs[0].traced
}

// spreadReport is the one-set mode: is every end-to-end spread within its
// bound? setup_s is reported but exempt, as in the acceptance rule.
func spreadReport(w io.Writer, specs []metricSpec, set resultSet) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\truns\tmedian [q1 q3]\tspread\tbound\tstatus")
	for _, wl := range workloads(set) {
		runs := set[wl]
		for _, spec := range specs {
			vals, found := values(runs, spec.Name)
			if !found {
				if required(spec, runs) {
					ok = false
					fmt.Fprintf(tw, "%s\t%s\t%d\t\t\t\tMISSING from a run\n", wl, spec.Name, len(runs))
				}
				continue
			}
			s := summarize(vals)
			if spec.Bound == nil {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%.4f\t-\t-\n", wl, spec.Name, len(vals), fmtQ(s), s.spread)
				continue
			}
			status := "steady"
			switch {
			case s.spread > *spec.Bound && spec.Name != "setup_s":
				status, ok = "TOO NOISY", false
			case s.spread > *spec.Bound:
				status = "noisy (exempt)"
			case s.spread > *spec.Bound/3:
				status = "noisy"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%.4f\t%.4g\t%s\n", wl, spec.Name, len(vals), fmtQ(s), s.spread, *spec.Bound, status)
		}
		if f := failures(runs); f.failed > 0 {
			ok = false
			fmt.Fprintf(tw, "%s\tfailed\t%d\t%d of %d operations\t\t\tFAILED\n", wl, len(runs), f.failed, f.tried)
		}
	}
	tw.Flush()
	return ok
}

// compareSets is the two-set mode; it reports whether no pair regressed.
// NEW missing a workload, runs or an end-to-end metric that BASE has is a
// regression: a crashed or partial run must not pass for an unchanged one.
func compareSets(w io.Writer, specs []metricSpec, base, cur resultSet) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1 q3]\tnew median [q1 q3]\tchange\tverdict")
	for _, wl := range workloads(base, cur) {
		b, c := base[wl], cur[wl]
		switch {
		case len(b) == 0:
			fmt.Fprintf(tw, "%s\truns\t0 runs\t%d runs\t\t%s\n", wl, len(c), verdictUnresolved)
			continue
		case len(c) < len(b):
			ok = false
			fmt.Fprintf(tw, "%s\truns\t%d runs\t%d runs\t\t%s (runs missing)\n", wl, len(b), len(c), verdictRegression)
			if len(c) == 0 {
				continue
			}
		}
		fv := failedVerdict(failures(b), failures(c))
		if fv != verdictSame {
			ok = false
		}
		fmt.Fprintf(tw, "%s\tfailed\t%d runs\t%d runs\t\t%s\n", wl, len(b), len(c), fv)
		for _, spec := range specs {
			bv, bok := values(b, spec.Name)
			cv, cok := values(c, spec.Name)
			switch {
			case !cok && required(spec, c):
				ok = false
				fmt.Fprintf(tw, "%s\t%s\t\tmissing from a run\t\t%s\n", wl, spec.Name, verdictRegression)
				continue
			case !bok && required(spec, b):
				fmt.Fprintf(tw, "%s\t%s\tmissing from a run\t\t\t%s\n", wl, spec.Name, verdictUnresolved)
				continue
			case !bok || !cok:
				continue
			}
			bs, cs := summarize(bv), summarize(cv)
			v := verdict(spec, bs, cs)
			if v == verdictRegression {
				ok = false
			}
			change := "n/a"
			if d := worseBy(spec, bs.med, cs.med); !math.IsInf(d, 0) {
				change = fmt.Sprintf("%+.2f%% worse", 100*d)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", wl, spec.Name, fmtQ(bs), fmtQ(cs), change, v)
		}
	}
	tw.Flush()
	return ok
}

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark definition holding directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(stderr, "usage: compare [-bench BENCHMARK.json] BASE [NEW]")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(stderr, "compare: %s: %v\n", *benchPath, err)
		return 2
	}
	specs := append(bf.EndToEnd, bf.PerLayer...)
	sets := make([]resultSet, fs.NArg())
	for i, p := range fs.Args() {
		if sets[i], err = loadSet(p); err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 2
		}
	}
	var ok bool
	if len(sets) == 1 {
		ok = spreadReport(stdout, specs, sets[0])
	} else {
		for wl, b := range sets[0] {
			if c := sets[1][wl]; len(c) > 0 && c[0].traced != b[0].traced {
				fmt.Fprintf(stderr, "compare: workload %s: one set is traced, the other is not\n", wl)
				return 2
			}
		}
		ok = compareSets(stdout, specs, sets[0], sets[1])
	}
	if !ok {
		return 1
	}
	return 0
}
