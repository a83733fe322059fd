// Command gpart partitions a process-network graph under bandwidth and
// resource constraints (the paper's GP tool), or with the unconstrained
// METIS-style baseline for comparison.
//
// Usage:
//
//	gpart -graph net.graph -k 4 -bmax 16 -rmax 165
//	gpart -graph net.json -format json -k 4 -algo baseline
//	gpart -graph net.graph -k 4 -bmax 16 -rmax 165 -dot out.dot -svg out.svg
//
// The input format is METIS .graph by default; -format selects json,
// edgelist or incidence. The partition is printed one "node part" pair
// per line, followed by the metrics the paper's tables report.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"ppnpart/internal/core"
	"ppnpart/internal/engine"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/mlkp"
	"ppnpart/internal/prof"
	"ppnpart/internal/stream"
	"ppnpart/internal/viz"
)

// config carries the flag values into run.
type config struct {
	graphPath, format string
	k                 int
	bmax, rmax        int64
	algo              string
	seed              int64
	cycles            int
	refine            string
	streamIters       int
	streamSeed        int
	minimize          bool
	replicate         bool
	maxClones         int
	timeout           time.Duration
	dotPath, svgPath  string
	outPath, evalPath string
	tracePath         string
	stats, quiet      bool
	cpuProf, memProf  string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.graphPath, "graph", "", "input graph file (required)")
	flag.StringVar(&cfg.format, "format", "metis", "input format: metis, json, edgelist, incidence")
	flag.IntVar(&cfg.k, "k", 4, "number of partitions (FPGAs)")
	flag.Int64Var(&cfg.bmax, "bmax", 0, "max bandwidth between any pair of partitions (0 = unconstrained)")
	flag.Int64Var(&cfg.rmax, "rmax", 0, "max resources per partition (0 = unconstrained)")
	flag.StringVar(&cfg.algo, "algo", "gp", "algorithm: gp (constrained multilevel), stream (single-pass streaming + restreaming fast path), or baseline (METIS-style)")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed")
	flag.IntVar(&cfg.cycles, "cycles", 16, "GP cyclic iteration budget")
	flag.StringVar(&cfg.refine, "refine", "auto", "refinement strategy: auto (batch above a size threshold), serial, or batch")
	flag.IntVar(&cfg.streamIters, "stream-iters", 0, "restream pass cap (0 = default: 8 standalone, 4 as gp seeder; negative disables restreaming)")
	flag.IntVar(&cfg.streamSeed, "stream-seed", 0, "gp only: coarsest-graph size at which the initial partition switches to streaming (0 = default 200000, negative disables)")
	flag.BoolVar(&cfg.minimize, "minimize", false, "keep cycling after feasibility to lower the cut")
	flag.BoolVar(&cfg.replicate, "replicate", false, "gp only: run the post-refinement logic-replication pass (clone nodes into a second partition when headroom exists and goodness improves)")
	flag.IntVar(&cfg.maxClones, "max-clones", 0, "replication clone budget (0 = default 32)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "wall-clock budget for GP; on expiry the best partition so far is reported (0 = none)")
	flag.StringVar(&cfg.dotPath, "dot", "", "write the partitioned graph as Graphviz DOT")
	flag.StringVar(&cfg.svgPath, "svg", "", "write the partitioned graph as SVG")
	flag.StringVar(&cfg.outPath, "out", "", "write the partition to this file (node part per line)")
	flag.StringVar(&cfg.evalPath, "eval", "", "evaluate an existing partition file instead of partitioning")
	flag.StringVar(&cfg.tracePath, "trace", "", "write the structured solve trace (per-level heuristics, refinement outcomes, prune/retry decisions) as JSON to this file (gp only)")
	flag.BoolVar(&cfg.stats, "stats", false, "print graph statistics and exit (no partitioning)")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress the per-node assignment listing")
	flag.StringVar(&cfg.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.memProf, "memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	stop, err := prof.StartCPU(cfg.cpuProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpart: %v\n", err)
		os.Exit(1)
	}
	runErr := run(cfg)
	stop()
	if err := prof.WriteHeap(cfg.memProf); err != nil {
		fmt.Fprintf(os.Stderr, "gpart: %v\n", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "gpart: %v\n", runErr)
		// A -timeout expiry is not an ordinary failure: the best-effort
		// partition was still reported. Scripts that care get a distinct
		// exit code to tell "truncated but usable" from "broken".
		if errors.Is(runErr, context.DeadlineExceeded) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	f, err := os.Open(cfg.graphPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var g *graph.Graph
	switch cfg.format {
	case "metis":
		g, err = graph.ReadMETIS(f)
	case "json":
		g, err = graph.ReadJSON(f)
	case "edgelist":
		g, err = graph.ReadEdgeList(f)
	case "incidence":
		g, err = graph.ReadIncidence(f)
	default:
		return fmt.Errorf("unknown format %q", cfg.format)
	}
	if err != nil {
		return err
	}
	if cfg.stats {
		fmt.Println(graph.ComputeStats(g))
		return nil
	}
	c := metrics.Constraints{Bmax: cfg.bmax, Rmax: cfg.rmax}

	var parts []int
	if cfg.evalPath != "" {
		f, err := os.Open(cfg.evalPath)
		if err != nil {
			return err
		}
		parts, err = graph.ReadPartition(f, g.NumNodes())
		f.Close()
		if err != nil {
			return err
		}
		if err := metrics.Validate(g, parts, cfg.k); err != nil {
			return err
		}
		fmt.Printf("evaluating partition from %s\n", cfg.evalPath)
		return report(g, parts, cfg.k, c, cfg.dotPath, cfg.svgPath, cfg.outPath, cfg.quiet)
	}
	var timedOut bool
	switch cfg.algo {
	case "gp":
		ctx := context.Background()
		if cfg.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
			defer cancel()
		}
		var tr *engine.Trace
		if cfg.tracePath != "" {
			tr = &engine.Trace{}
		}
		refineMode, err := engine.ParseRefineMode(cfg.refine)
		if err != nil {
			return err
		}
		res, err := core.PartitionTraceCtx(ctx, g, core.Options{
			K:                     cfg.k,
			Constraints:           c,
			Seed:                  cfg.seed,
			MaxCycles:             cfg.cycles,
			MinimizeAfterFeasible: cfg.minimize,
			Refine:                refineMode,
			StreamSeedThreshold:   cfg.streamSeed,
			StreamIterations:      cfg.streamIters,
			Replicate:             cfg.replicate,
			MaxClones:             cfg.maxClones,
		}, tr)
		if err != nil {
			return err
		}
		parts = res.Parts
		if res.Stopped || !res.Feasible {
			fmt.Fprintf(os.Stderr, "gpart: WARNING: %s\n", res.Message)
		}
		timedOut = res.Stopped && errors.Is(ctx.Err(), context.DeadlineExceeded)
		fmt.Printf("algorithm: GP (cycles=%d, feasible=%v, stopped=%v, %s)\n", res.Cycles, res.Feasible, res.Stopped, res.Runtime)
		if cfg.replicate {
			fmt.Printf("replicated nodes:    %d\n", res.ReplicatedNodes)
			for u, p := range res.Replicas {
				if p >= 0 {
					fmt.Printf("  replica: node %d also on partition %d\n", u, p)
				}
			}
		}
		if tr != nil {
			if err := writeTrace(cfg.tracePath, tr); err != nil {
				return err
			}
		}
	case "stream":
		ctx := context.Background()
		if cfg.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
			defer cancel()
		}
		res, err := core.PartitionCtx(ctx, g, core.Options{
			K:                cfg.k,
			Constraints:      c,
			Seed:             cfg.seed,
			Algo:             core.AlgoStream,
			StreamIterations: cfg.streamIters,
		})
		if err != nil {
			return err
		}
		parts = res.Parts
		if res.Stopped || !res.Feasible {
			fmt.Fprintf(os.Stderr, "gpart: WARNING: %s\n", res.Message)
		}
		timedOut = res.Stopped && errors.Is(ctx.Err(), context.DeadlineExceeded)
		fmt.Printf("algorithm: stream (passes=%d, feasible=%v, stopped=%v, %s)\n",
			res.Cycles, res.Feasible, res.Stopped, res.Runtime)
		if cfg.tracePath != "" {
			if err := writeStreamTrace(cfg.tracePath, res.StreamIters); err != nil {
				return err
			}
		}
	case "baseline":
		res, err := mlkp.Partition(g, mlkp.Options{K: cfg.k, Seed: cfg.seed})
		if err != nil {
			return err
		}
		parts = res.Parts
		fmt.Printf("algorithm: METIS-like baseline (levels=%d, %s)\n", res.Levels, res.Runtime)
	default:
		return fmt.Errorf("unknown algorithm %q", cfg.algo)
	}

	if err := report(g, parts, cfg.k, c, cfg.dotPath, cfg.svgPath, cfg.outPath, cfg.quiet); err != nil {
		return err
	}
	if timedOut {
		return fmt.Errorf("wall-clock budget %v exhausted, best-effort partition reported above: %w",
			cfg.timeout, context.DeadlineExceeded)
	}
	return nil
}

// report prints the metrics and writes the requested artifacts.
func report(g *graph.Graph, parts []int, k int, c metrics.Constraints,
	dotPath, svgPath, outPath string, quiet bool) error {
	rep := metrics.Evaluate(g, parts, k, c)
	fmt.Printf("edge cut:            %d\n", rep.EdgeCut)
	if g.NumHyperEdges() > 0 {
		fmt.Printf("hyperedge cut:       %d\n", rep.HyperCut)
	}
	fmt.Printf("max local bandwidth: %d\n", rep.MaxLocalBandwidth)
	fmt.Printf("max resources:       %d\n", rep.MaxResource)
	fmt.Printf("imbalance:           %.3f\n", rep.Imbalance)
	if !c.Unconstrained() {
		fmt.Printf("feasible:            %v\n", rep.Feasible)
		for _, v := range rep.Violations {
			fmt.Printf("  violation: %s\n", v)
		}
	}
	for _, line := range viz.PartitionLegend(g, parts, k) {
		fmt.Println(line)
	}
	if !quiet {
		for u, p := range parts {
			fmt.Printf("%d %d\n", u, p)
		}
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		err = graph.WritePartition(f, parts)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	style := viz.Style{ShowWeights: true, Parts: parts, K: k}
	if dotPath != "" {
		df, err := os.Create(dotPath)
		if err != nil {
			return err
		}
		err = viz.WriteDOT(df, g, style)
		if cerr := df.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if svgPath != "" {
		sf, err := os.Create(svgPath)
		if err != nil {
			return err
		}
		err = viz.WriteSVG(sf, g, style)
		if cerr := sf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeTrace encodes the solve trace to path and prints a one-line
// summary so the user knows what landed in the file.
func writeTrace(path string, tr *engine.Trace) error {
	b, err := tr.JSON()
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	s := tr.Summary()
	fmt.Printf("trace: %d cycles (%d counted, %d retries, %d pruned), %d levels, %d FM passes -> %s\n",
		s.Cycles, s.Counted, s.Retries, s.Pruned, s.Levels, s.FMPasses, path)
	return nil
}

// writeStreamTrace encodes the per-pass streaming trajectory to path.
func writeStreamTrace(path string, iters []stream.IterTrace) error {
	b, err := json.MarshalIndent(struct {
		Stream []stream.IterTrace `json:"stream"`
	}{iters}, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding stream trace: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %d streaming passes -> %s\n", len(iters), path)
	return nil
}
