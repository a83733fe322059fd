// Command ppnbench is the repository benchmark: it generates a workload's
// inputs from a seed, runs the partitioner (or the ppnd service) for a
// fixed window, checks every output against independent recomputation,
// and prints one JSON result line.
//
//	ppnbench -workload multilevel_n100k -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; -trace 1 makes a
// separate traced run that times calls into each layer's public functions
// and reports the per-layer metrics instead. -workload all runs every
// workload in sequence, each in its own child process, and prints one line
// per workload. bench/README.md documents the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named input set and the way the benchmark drives it.
type workload struct {
	name string
	run  func(r *run) error
	rule layerRule
}

var workloads = []workload{
	{name: "paper_small", run: runPaperSmall, rule: paperRule},
	{name: "multilevel_n100k", run: runMultilevel, rule: multilevelRule},
	{name: "fanout_replicate", run: runFanout, rule: fanoutRule},
	{name: "stream_n500k", run: runStream, rule: streamRule},
	{name: "ppnd_mix", run: runPPNDMix, rule: ppndRule},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run is the state of one workload run: its parameters and what it
// measured and checked.
type run struct {
	seed   int64
	window time.Duration
	trace  bool
	scale  scale

	metrics   map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	firstFail error
}

func newRun(seed int64, window time.Duration, trace bool, sc scale) *run {
	return &run{seed: seed, window: window, trace: trace, scale: sc,
		metrics: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric; n is the number of samples behind it (0 when it
// is a count or a single measurement).
func (r *run) set(name string, v float64, n int) {
	r.metrics[name] = v
	if n > 0 {
		r.samples[name] = n
	}
}

// op records one attempted operation and its check verdict. Only the
// first failure is printed; the rest are counted.
func (r *run) op(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if r.firstFail == nil {
		r.firstFail = err
		fmt.Fprintf(os.Stderr, "ppnbench: first failure: %v\n", err)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the printed line. Its shape is fixed by BENCHMARK.json's
// contract: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs w and assembles its result. A metric missing from the run,
// or one the catalog does not list for the run's mode, is an error in the
// benchmark itself, not a failed operation.
func execute(w workload, r *run) (result, error) {
	if err := w.run(r); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
		w.rule.zeroBypassed(r.metrics)
		msg, ok := w.rule.check(r.metrics)
		var err error
		if !ok {
			err = errors.New(msg)
		}
		r.op(err)
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return result{}, fmt.Errorf("%s: metric %s was not measured", w.name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s is %v", w.name, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range r.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return result{}, fmt.Errorf("%s: metric %s is not listed for this mode", w.name, name)
		}
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("%s: no operation was attempted", w.name)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printSummary writes the metrics with their sample counts to stderr; the
// result line has no room for them.
func printSummary(w io.Writer, name string, r *run, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "ppnbench: %s seed=%d trace=%v gomaxprocs=%d attempted=%d failed=%d\n",
		name, r.seed, r.trace, runtime.GOMAXPROCS(0), res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		if k := r.samples[n]; k > 0 {
			fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, k)
		} else {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ppnbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("ppnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 makes the traced run, which reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d must be at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d must be 0 or 1", *trace)
	}
	// Two threads of Go code at most, so results compare across machines
	// with more cores; every parallel layer sizes itself from this.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if *name == "all" {
		return runAll(names, *seed, *seconds, *trace, stdout, stderr)
	}
	w, ok := lookup(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s, or all)", *name, strings.Join(names, ", "))
	}
	r := newRun(*seed, time.Duration(*seconds)*time.Second, *trace == 1, fullScale)
	res, err := execute(w, r)
	if err != nil {
		return err
	}
	printSummary(stderr, w.name, r, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// taggedResult is one line of -workload all: the child's result with the
// workload and settings that produced it.
type taggedResult struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Trace    int             `json:"trace"`
	Result   json.RawMessage `json:"result"`
}

// runAll runs each workload in its own child process, so peak_rss_mb and
// the pool and arena counters belong to one workload.
func runAll(names []string, seed int64, seconds, trace int, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, name := range names {
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "ppnbench: %s: %v\n", name, err)
			failed = append(failed, name)
			continue
		}
		line := lastLine(out)
		if !json.Valid(line) {
			fmt.Fprintf(stderr, "ppnbench: %s printed no result line\n", name)
			failed = append(failed, name)
			continue
		}
		tagged, err := json.Marshal(taggedResult{Workload: name, Seed: seed, Trace: trace, Result: line})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", tagged)
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	return last
}
