// Command ppnsim is the deployment-side tool: it takes a process network
// (PPN JSON), a platform (either -fpgas/-rmax/-linkbw for a homogeneous
// system or -topology JSON for a heterogeneous one), partitions the
// network with GP (or loads a partition file), optionally searches the
// best part→FPGA placement, and executes the mapped network on the
// discrete-event simulator — reporting makespan, throughput, link
// saturation and the per-channel FIFO depths the deployment needs.
//
// It also tells the fault-tolerance story end to end: -fail-fpga,
// -degrade-link and -outage inject platform faults mid-run, -repair
// evacuates the broken mapping onto the surviving devices and
// re-simulates, and -timeout bounds the partitioner, settling for its
// best-effort result when the deadline fires.
//
// Usage:
//
//	ppnsim -ppn fir.ppn.json -fpgas 4 -rmax 500 -linkbw 2
//	ppnsim -ppn net.ppn.json -topology ring.topo.json -place
//	ppnsim -ppn net.ppn.json -fpgas 2 -rmax 900 -linkbw 4 -partition my.part
//	ppnsim -ppn net.ppn.json -fpgas 4 -rmax 500 -linkbw 2 -fail-fpga 2 -fail-at 100 -repair
//	ppnsim -ppn net.ppn.json -fpgas 4 -rmax 500 -linkbw 2 -degrade-link 0:1:0.5 -timeout 2s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ppnpart/internal/core"
	"ppnpart/internal/engine"
	"ppnpart/internal/fpga"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/ppn"
	"ppnpart/internal/prof"
	"ppnpart/internal/repair"
)

// config gathers every flag so tests can drive run directly.
type config struct {
	ppnPath   string
	fpgas     int
	rmax      int64
	linkBW    int64
	topoPath  string
	partPath  string
	place     bool
	seed      int64
	cycles    int
	refine    string
	algo      string
	hyper     bool
	replicate bool
	fifoDepth bool
	trace     bool
	// Fault tolerance.
	timeout      time.Duration
	failFPGAs    string
	failAt       int64
	degradeLinks string
	outages      string
	repair       bool
	// Profiling.
	cpuProf, memProf string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.ppnPath, "ppn", "", "process network JSON (required)")
	flag.IntVar(&cfg.fpgas, "fpgas", 4, "number of FPGAs (homogeneous platform)")
	flag.Int64Var(&cfg.rmax, "rmax", 0, "per-FPGA resources (homogeneous platform)")
	flag.Int64Var(&cfg.linkBW, "linkbw", 0, "per-link tokens/cycle (homogeneous platform)")
	flag.StringVar(&cfg.topoPath, "topology", "", "heterogeneous topology JSON (overrides -fpgas/-rmax/-linkbw)")
	flag.StringVar(&cfg.partPath, "partition", "", "use this partition file instead of running GP")
	flag.BoolVar(&cfg.place, "place", false, "search the best part-to-FPGA placement (heterogeneous)")
	flag.Int64Var(&cfg.seed, "seed", 1, "GP random seed")
	flag.IntVar(&cfg.cycles, "cycles", 16, "GP cyclic iteration budget")
	flag.StringVar(&cfg.refine, "refine", "auto", "GP refinement strategy: auto, serial or batch")
	flag.StringVar(&cfg.algo, "algo", "gp", "partitioner: gp (multilevel) or stream (single-pass streaming fast path)")
	flag.BoolVar(&cfg.hyper, "hyper", false, "lower fanout channel groups to hyperedges (one stream per broadcast instead of per-leg pairwise edges)")
	flag.BoolVar(&cfg.replicate, "replicate", false, "run the post-refinement logic-replication pass (clone producers next to their consumers when headroom exists and goodness improves)")
	flag.BoolVar(&cfg.fifoDepth, "fifos", false, "print per-channel FIFO depth requirements")
	flag.BoolVar(&cfg.trace, "trace", false, "print the GP solve-trace summary (cycles, retries, prunes, per-stage wall time)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "GP latency budget; on expiry the best-effort partition is used (0 = none)")
	flag.StringVar(&cfg.failFPGAs, "fail-fpga", "", "comma-separated FPGA ids to take offline at -fail-at")
	flag.Int64Var(&cfg.failAt, "fail-at", 0, "cycle at which the FPGAs named by -fail-fpga go offline")
	flag.StringVar(&cfg.degradeLinks, "degrade-link", "", "comma-separated a:b:factor[:cycle] link degradations")
	flag.StringVar(&cfg.outages, "outage", "", "comma-separated a:b:start:end transient link outages")
	flag.BoolVar(&cfg.repair, "repair", false, "after injecting faults, repair the mapping on the survivors and re-simulate")
	flag.StringVar(&cfg.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&cfg.memProf, "memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	stop, err := prof.StartCPU(cfg.cpuProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppnsim: %v\n", err)
		os.Exit(1)
	}
	runErr := run(cfg)
	stop()
	if err := prof.WriteHeap(cfg.memProf); err != nil {
		fmt.Fprintf(os.Stderr, "ppnsim: %v\n", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "ppnsim: %v\n", runErr)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.ppnPath == "" {
		return fmt.Errorf("-ppn is required")
	}
	pf, err := os.Open(cfg.ppnPath)
	if err != nil {
		return err
	}
	net, err := ppn.ReadJSON(pf)
	pf.Close()
	if err != nil {
		return err
	}
	fmt.Println(net)
	if net.HasCycle() {
		fmt.Println("warning: network has feedback cycles; simulated FIFO depths assume " +
			"unbounded buffers and may not be deadlock-safe under finite sizing")
	}

	// Platform / topology.
	var topo *fpga.Topology
	if cfg.topoPath != "" {
		tf, err := os.Open(cfg.topoPath)
		if err != nil {
			return err
		}
		topo, err = fpga.ReadTopologyJSON(tf)
		tf.Close()
		if err != nil {
			return err
		}
	} else {
		if cfg.rmax <= 0 || cfg.linkBW <= 0 {
			return fmt.Errorf("homogeneous platform needs -rmax and -linkbw (or pass -topology)")
		}
		topo = fpga.Uniform(cfg.fpgas, cfg.rmax, cfg.linkBW)
	}
	k := topo.NumFPGAs()

	plan, err := parseFaultPlan(cfg)
	if err != nil {
		return err
	}
	if err := plan.Validate(k); err != nil {
		return err
	}
	if cfg.repair && plan.Empty() {
		return fmt.Errorf("-repair needs a fault to repair from (-fail-fpga, -degrade-link or -outage)")
	}

	var g *graph.Graph
	if cfg.hyper {
		g, err = net.ToGraphHyper(ppn.DefaultResourceModel())
	} else {
		g, err = net.ToGraph(ppn.DefaultResourceModel())
	}
	if err != nil {
		return err
	}
	rounds := nominalRounds(net)

	// Partition: load or compute. The GP constraints come from the
	// topology's weakest link and smallest device (the uniform
	// abstraction of the heterogeneous system).
	var parts []int
	if cfg.partPath != "" {
		f, err := os.Open(cfg.partPath)
		if err != nil {
			return err
		}
		parts, err = graph.ReadPartition(f, g.NumNodes())
		f.Close()
		if err != nil {
			return err
		}
		if err := metrics.Validate(g, parts, k); err != nil {
			return err
		}
		fmt.Printf("partition: loaded from %s\n", cfg.partPath)
	} else {
		minRes, minBW := topo.Resources[0], int64(0)
		for _, r := range topo.Resources {
			if r < minRes {
				minRes = r
			}
		}
		for i := range topo.LinkBW {
			for j, bw := range topo.LinkBW[i] {
				if i != j && bw > 0 && (minBW == 0 || bw < minBW) {
					minBW = bw
				}
			}
		}
		c := metrics.Constraints{Rmax: minRes, Bmax: minBW * rounds}
		ctx := context.Background()
		if cfg.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
			defer cancel()
		}
		var tr *engine.Trace
		if cfg.trace {
			tr = &engine.Trace{}
		}
		refineMode, err := engine.ParseRefineMode(cfg.refine)
		if err != nil {
			return err
		}
		algo, err := core.ParseAlgorithm(cfg.algo)
		if err != nil {
			return err
		}
		res, err := core.PartitionTraceCtx(ctx, g, core.Options{
			K: k, Constraints: c, Seed: cfg.seed, MaxCycles: cfg.cycles,
			Refine: refineMode, Algo: algo, Replicate: cfg.replicate,
		}, tr)
		if err != nil {
			return err
		}
		parts = res.Parts
		fmt.Printf("partition: %s cut=%d feasible=%v (Bmax=%d tokens, Rmax=%d, %s)\n",
			strings.ToUpper(algo.String()), res.Report.EdgeCut, res.Feasible, c.Bmax, c.Rmax, res.Runtime)
		if cfg.hyper {
			fmt.Printf("partition: hyperedge cut=%d over %d fanout nets\n", res.Report.HyperCut, g.NumHyperEdges())
		}
		if cfg.replicate {
			fmt.Printf("partition: replicated %d node(s), goodness=%g\n", res.ReplicatedNodes, res.Goodness)
			for u, p := range res.Replicas {
				if p >= 0 {
					fmt.Printf("  replica: process %d also on FPGA part %d\n", u, p)
				}
			}
		}
		if res.Stopped {
			fmt.Printf("partition: %s\n", res.Message)
		}
		if tr != nil {
			printTrace(tr.Summary())
		}
	}

	assignment := parts
	if cfg.place {
		var pr *fpga.PlacementResult
		if k <= 8 {
			pr, err = fpga.BestPlacement(g, parts, k, topo, rounds)
		} else {
			// Beyond the exhaustive ceiling, the swap-based heuristic
			// placer takes over.
			pr, err = fpga.AnnealPlacement(g, parts, k, topo, rounds, 0, 0, cfg.seed)
		}
		if err != nil {
			return err
		}
		assignment = pr.Assignment
		fmt.Printf("placement: part->FPGA %v (%d candidates examined, feasible=%v)\n",
			pr.PartToFPGA, pr.Evaluated, pr.Check.Feasible)
	}

	chk, err := topo.CheckMapping(g, assignment, rounds)
	if err != nil {
		return err
	}
	fmt.Printf("static check: feasible=%v resourceViolations=%d bandwidthViolations=%d missingLinks=%d\n",
		chk.Feasible, len(chk.ResourceViolations), len(chk.BandwidthViolations), len(chk.MissingLinks))
	if len(chk.MissingLinks) > 0 {
		fmt.Printf("  missing links: %v (simulation impossible; try -place)\n", chk.MissingLinks)
		return fmt.Errorf("mapping routes traffic over missing links")
	}

	sim, err := fpga.SimulateTopology(net, assignment, topo, fpga.SimOptions{})
	if err != nil {
		return err
	}
	printSim("simulation", net, sim, cfg.fifoDepth)

	if plan.Empty() {
		return nil
	}

	// Fault injection: re-run the same mapping while the plan unfolds.
	faulted, err := fpga.SimulateTopologyFaults(net, assignment, topo, plan, fpga.SimOptions{})
	if err != nil {
		return err
	}
	printSim("faulted simulation", net, faulted, false)
	if sim.Throughput > 0 {
		fmt.Printf("fault impact: throughput %.3f -> %.3f (%.0f%%), firings %d -> %d\n",
			sim.Throughput, faulted.Throughput, 100*faulted.Throughput/sim.Throughput,
			sim.TotalFirings, faulted.TotalFirings)
	}
	for _, ci := range faulted.StalledChannels {
		ch := net.Channels[ci]
		fmt.Printf("  stalled channel: %s -> %s\n", net.Processes[ch.From].Name, net.Processes[ch.To].Name)
	}
	if len(faulted.DeadProcesses) > 0 {
		fmt.Printf("  dead processes: %d on failed FPGAs %v\n", len(faulted.DeadProcesses), plan.FailedFPGAs())
	}

	if !cfg.repair {
		return nil
	}

	// Repair: evacuate the survivors' platform and re-simulate.
	degraded, err := plan.DegradedTopology(topo)
	if err != nil {
		return err
	}
	rep, err := repair.Repair(g, assignment, degraded, plan.FailedFPGAs(), repair.Options{
		Rounds: rounds, Seed: cfg.seed, MaxCycles: cfg.cycles,
	})
	if err != nil {
		return err
	}
	mode := "incremental"
	if rep.Repartitioned {
		mode = "full re-partition"
	}
	fmt.Printf("repair: %s, evacuated %d, moved %d processes, cut %d -> %d (delta %+d), feasible=%v\n",
		mode, rep.Evacuated, len(rep.Moved), rep.CutBefore, rep.CutAfter, rep.DeltaCut, rep.Feasible)
	if !rep.Feasible {
		for _, v := range rep.Check.ResourceViolations {
			fmt.Printf("  violation: %s\n", v)
		}
		for _, v := range rep.Check.BandwidthViolations {
			fmt.Printf("  violation: %s\n", v)
		}
		return fmt.Errorf("repair could not reach a feasible mapping on the surviving platform")
	}
	resim, err := fpga.SimulateTopologyFaults(net, rep.Assignment, topo, plan, fpga.SimOptions{})
	if err != nil {
		return err
	}
	printSim("repaired simulation", net, resim, cfg.fifoDepth)
	if !resim.Completed {
		return fmt.Errorf("repaired mapping still does not complete under the fault plan")
	}
	return nil
}

// printTrace reports the GP solve-trace summary the way the rest of the
// tool reports simulation runs: one headline plus indented detail.
func printTrace(s engine.TraceSummary) {
	fmt.Printf("trace: %d cycles (%d counted, %d retries, %d pruned, %d discarded), best cycle %d, goodness %.1f\n",
		s.Cycles, s.Counted, s.Retries, s.Pruned, s.Discarded, s.BestCycle, s.Goodness)
	fmt.Printf("  hierarchy: %d levels built, %d FM passes, %d FM moves\n",
		s.Levels, s.FMPasses, s.FMMoves)
	if s.BatchRounds > 0 || s.BatchDegraded > 0 {
		fmt.Printf("  batch refinement: %d rounds, %d moves, %d degraded levels\n",
			s.BatchRounds, s.BatchMoves, s.BatchDegraded)
	}
	if len(s.HeuristicWins) > 0 {
		keys := make([]string, 0, len(s.HeuristicWins))
		for h := range s.HeuristicWins {
			keys = append(keys, h)
		}
		sort.Strings(keys)
		for _, h := range keys {
			fmt.Printf("  matching %-10s %d levels\n", h+":", s.HeuristicWins[h])
		}
	}
	if total := s.CoarsenNS + s.SeedNS + s.RefineNS; total > 0 {
		fmt.Printf("  stage wall: coarsen %s, seed %s, refine %s\n",
			time.Duration(s.CoarsenNS), time.Duration(s.SeedNS), time.Duration(s.RefineNS))
	}
}

// printSim reports one simulation run.
func printSim(label string, net *ppn.PPN, sim *fpga.SimResult, fifoDepth bool) {
	fmt.Printf("%s: completed=%v makespan=%d cycles throughput=%.3f firings/cycle\n",
		label, sim.Completed, sim.Makespan, sim.Throughput)
	fmt.Printf("links: %d with traffic, %d saturated, max utilization %.2f\n",
		len(sim.Links), sim.SaturatedLinks, sim.MaxLinkUtilization)
	for _, l := range sim.Links {
		fmt.Printf("  FPGA%d <-> FPGA%d: %d tokens, busy %d cycles, saturated %d cycles, peak queue %d\n",
			l.A, l.B, l.TokensMoved, l.BusyCycles, l.SaturatedCycles, l.PeakQueue)
	}
	if fifoDepth {
		fmt.Println("FIFO depth requirements (peak occupancy per channel):")
		type chDepth struct {
			idx  int
			peak int64
		}
		var depths []chDepth
		for ci, peak := range sim.ChannelPeakOccupancy {
			depths = append(depths, chDepth{ci, peak})
		}
		sort.Slice(depths, func(a, b int) bool { return depths[a].peak > depths[b].peak })
		for _, d := range depths {
			ch := net.Channels[d.idx]
			fmt.Printf("  %s -> %s: depth %d (of %d tokens total)\n",
				net.Processes[ch.From].Name, net.Processes[ch.To].Name, d.peak, ch.Tokens)
		}
	}
}

// parseFaultPlan builds the FaultPlan described by the fault flags.
func parseFaultPlan(cfg config) (*fpga.FaultPlan, error) {
	plan := &fpga.FaultPlan{}
	if cfg.failAt < 0 {
		return nil, fmt.Errorf("-fail-at must be >= 0")
	}
	for _, tok := range splitList(cfg.failFPGAs) {
		id, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("-fail-fpga: bad FPGA id %q", tok)
		}
		plan.FPGAFailures = append(plan.FPGAFailures, fpga.FPGAFailure{FPGA: id, Cycle: cfg.failAt})
	}
	for _, tok := range splitList(cfg.degradeLinks) {
		f := strings.Split(tok, ":")
		if len(f) != 3 && len(f) != 4 {
			return nil, fmt.Errorf("-degrade-link: want a:b:factor[:cycle], got %q", tok)
		}
		a, err1 := strconv.Atoi(f[0])
		b, err2 := strconv.Atoi(f[1])
		factor, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("-degrade-link: malformed spec %q", tok)
		}
		var from int64
		if len(f) == 4 {
			from, err1 = strconv.ParseInt(f[3], 10, 64)
			if err1 != nil {
				return nil, fmt.Errorf("-degrade-link: malformed cycle in %q", tok)
			}
		}
		plan.Degradations = append(plan.Degradations, fpga.LinkDegradation{
			A: a, B: b, Factor: factor, FromCycle: from,
		})
	}
	for _, tok := range splitList(cfg.outages) {
		f := strings.Split(tok, ":")
		if len(f) != 4 {
			return nil, fmt.Errorf("-outage: want a:b:start:end, got %q", tok)
		}
		a, err1 := strconv.Atoi(f[0])
		b, err2 := strconv.Atoi(f[1])
		start, err3 := strconv.ParseInt(f[2], 10, 64)
		end, err4 := strconv.ParseInt(f[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("-outage: malformed spec %q", tok)
		}
		plan.Outages = append(plan.Outages, fpga.LinkOutage{A: a, B: b, Start: start, End: end})
	}
	return plan, nil
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// nominalRounds is the longest process iteration count.
func nominalRounds(net *ppn.PPN) int64 {
	var r int64 = 1
	for _, p := range net.Processes {
		if p.Iterations > r {
			r = p.Iterations
		}
	}
	return r
}
