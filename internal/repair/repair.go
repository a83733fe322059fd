// Package repair fixes an existing partition up after the platform
// degrades underneath it, instead of re-partitioning from scratch. Given
// a mapping, a (possibly degraded) topology and the set of failed FPGAs,
// it evacuates the processes stranded on dead devices, re-fits them onto
// the survivors with a connectivity-aware best-fit, and then reuses the
// partitioner's FM and bandwidth refiners under the reduced constraints.
// Only when the incremental fix-up cannot reach feasibility does it fall
// back to a full re-partition of the surviving platform — the
// repair-over-repartition policy of RePart-style systems: a local fix-up
// preserves most of the existing placement (cheap reconfiguration) and
// is usually feasible when the surviving capacity allows it.
package repair

import (
	"context"
	"fmt"
	"sort"

	"ppnpart/internal/arena"
	"ppnpart/internal/core"
	"ppnpart/internal/fpga"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
	"ppnpart/internal/refine"
)

// Options configures a repair run.
type Options struct {
	// RefinePasses bounds each local-search stage (default 8).
	RefinePasses int
	// Rounds scales link bandwidth into the unit of the graph's edge
	// weights, exactly as Topology.CheckMapping interprets it (default 1).
	Rounds int64
	// Seed drives the full re-partition fallback (default 1).
	Seed int64
	// MaxCycles bounds the fallback's cyclic budget (default 16).
	MaxCycles int
	// NoFallback disables the full re-partition: the result is then the
	// best incremental fix-up even when infeasible.
	NoFallback bool
}

func (o Options) withDefaults() Options {
	if o.RefinePasses <= 0 {
		o.RefinePasses = 8
	}
	if o.Rounds < 1 {
		o.Rounds = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 16
	}
	return o
}

// Result reports how a repair went.
type Result struct {
	// Assignment maps each process to an FPGA of the original topology's
	// index space; failed FPGAs never appear in it.
	Assignment []int
	// Moved lists (sorted) the processes whose FPGA changed.
	Moved []int
	// Evacuated counts the processes that sat on failed FPGAs.
	Evacuated int
	// Feasible is the static verdict of Assignment on the surviving
	// platform.
	Feasible bool
	// Repartitioned is true when the incremental fix-up could not reach
	// feasibility and the full partitioner ran instead.
	Repartitioned bool
	// CutBefore and CutAfter are the edge cuts of the old and new
	// assignments; DeltaCut = CutAfter - CutBefore (positive means the
	// repair paid extra traffic for survival).
	CutBefore, CutAfter, DeltaCut int64
	// Check is the static verdict of Assignment against the degraded
	// topology (FPGA ids in the original index space).
	Check *fpga.TopologyCheck
}

// Repair evacuates the processes on failed FPGAs and re-fits them onto
// the surviving devices of topo (which should already reflect any link
// degradation — see fpga.FaultPlan.DegradedTopology). The incremental
// path keeps every healthy process where it was unless the refiners move
// it; the fallback path re-partitions the whole network onto the
// survivors.
func Repair(g *graph.Graph, parts []int, topo *fpga.Topology, failed []int, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	n := topo.NumFPGAs()
	if len(parts) != g.NumNodes() {
		return nil, fmt.Errorf("repair: assignment covers %d processes, graph has %d", len(parts), g.NumNodes())
	}
	isFailed := make([]bool, n)
	for _, f := range failed {
		if f < 0 || f >= n {
			return nil, fmt.Errorf("repair: failed FPGA %d outside platform of %d", f, n)
		}
		isFailed[f] = true
	}
	for u, p := range parts {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("repair: process %d mapped to missing FPGA %d", u, p)
		}
	}
	// Survivors, and the compact index space the refiners run in.
	var survivors []int
	toCompact := make([]int, n)
	for i := range toCompact {
		toCompact[i] = -1
	}
	for i := 0; i < n; i++ {
		if !isFailed[i] {
			toCompact[i] = len(survivors)
			survivors = append(survivors, i)
		}
	}
	m := len(survivors)
	if m == 0 {
		return nil, fmt.Errorf("repair: every FPGA failed, nothing to repair onto")
	}

	res := &Result{CutBefore: metrics.EdgeCut(g, parts)}

	// Fast path: nothing evacuated (e.g. only a link degraded) and the
	// existing mapping still holds on the degraded platform — keep it.
	evacCount := 0
	for _, p := range parts {
		if toCompact[p] < 0 {
			evacCount++
		}
	}
	if evacCount == 0 {
		check, cerr := topo.CheckMapping(g, parts, opts.Rounds)
		if cerr != nil {
			return nil, cerr
		}
		if check.Feasible {
			res.Assignment = append([]int(nil), parts...)
			res.Check = check
			res.Feasible = true
			res.CutAfter = res.CutBefore
			return res, nil
		}
	}

	// Reduced constraints: the uniform abstraction of the surviving
	// platform, exactly how the deployment CLI derives GP constraints
	// from a topology (weakest surviving link, smallest surviving device).
	var rmax, bmin int64
	rmax = topo.Resources[survivors[0]]
	for _, s := range survivors {
		if topo.Resources[s] < rmax {
			rmax = topo.Resources[s]
		}
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			bw := topo.LinkBW[survivors[i]][survivors[j]]
			if bw > 0 && (bmin == 0 || bw < bmin) {
				bmin = bw
			}
		}
	}
	// Per-part capacities: each compact part keeps its own survivor's true
	// capacity (heterogeneous platforms no longer collapse to the weakest
	// device); the scalar Rmax stays the weakest survivor for consumers
	// that only understand the uniform abstraction. On uniform platforms
	// every RmaxPart entry equals Rmax, so nothing changes.
	rmaxPart := make([]int64, m)
	for i, s := range survivors {
		rmaxPart[i] = topo.Resources[s]
	}
	constraints := metrics.Constraints{Rmax: rmax, RmaxPart: rmaxPart, Bmax: bmin * opts.Rounds}

	// Incremental path: evacuate + best-fit + refine in compact space.
	compact := bestFitEvacuate(g, parts, topo, toCompact, survivors, res)
	if m > 1 {
		ws := arena.Get()
		s, err := pstate.NewWS(ws, g.ToCSR(), compact, pstate.Config{K: m, Constraints: constraints})
		if err != nil {
			arena.Put(ws)
			return nil, err
		}
		refine.KWayFM(ws, s, opts.RefinePasses)
		refine.RepairBandwidth(ws, s, opts.RefinePasses)
		refine.RebalanceResources(s, opts.RefinePasses)
		copy(compact, s.Parts())
		s.Release(ws)
		arena.Put(ws)
	}
	assignment := make([]int, len(compact))
	for u, c := range compact {
		assignment[u] = survivors[c]
	}
	check, err := topo.CheckMapping(g, assignment, opts.Rounds)
	if err != nil {
		return nil, err
	}

	// Fallback: full re-partition of the surviving platform, only when
	// the local fix-up failed and the caller allows it.
	if !check.Feasible && !opts.NoFallback && g.NumNodes() >= m {
		full, perr := core.PartitionCtx(context.Background(), g, core.Options{
			K:           m,
			Constraints: constraints,
			Seed:        opts.Seed,
			MaxCycles:   opts.MaxCycles,
		})
		if perr == nil {
			cand := make([]int, len(full.Parts))
			for u, c := range full.Parts {
				cand[u] = survivors[c]
			}
			candCheck, cerr := topo.CheckMapping(g, cand, opts.Rounds)
			if cerr == nil && candCheck.Feasible {
				assignment, check = cand, candCheck
				res.Repartitioned = true
			}
		}
	}

	res.Assignment = assignment
	res.Check = check
	res.Feasible = check.Feasible
	res.CutAfter = metrics.EdgeCut(g, assignment)
	res.DeltaCut = res.CutAfter - res.CutBefore
	for u := range parts {
		if assignment[u] != parts[u] {
			res.Moved = append(res.Moved, u)
		}
	}
	sort.Ints(res.Moved)
	return res, nil
}

// bestFitEvacuate returns the compact-space assignment after moving
// every process off the failed FPGAs: healthy processes keep their
// device; evacuees (heaviest first) go to the surviving FPGA with the
// strongest connectivity to their already-placed neighbors among those
// with room, falling back to the roomiest device when nothing fits.
func bestFitEvacuate(g *graph.Graph, parts []int, topo *fpga.Topology, toCompact, survivors []int, res *Result) []int {
	m := len(survivors)
	compact := make([]int, len(parts))
	load := make([]int64, m)
	var evacuees []graph.Node
	for u, p := range parts {
		if c := toCompact[p]; c >= 0 {
			compact[u] = c
			load[c] += g.NodeWeight(graph.Node(u))
		} else {
			compact[u] = -1
			evacuees = append(evacuees, graph.Node(u))
		}
	}
	res.Evacuated = len(evacuees)
	sort.Slice(evacuees, func(a, b int) bool {
		wa, wb := g.NodeWeight(evacuees[a]), g.NodeWeight(evacuees[b])
		if wa != wb {
			return wa > wb
		}
		return evacuees[a] < evacuees[b]
	})
	for _, u := range evacuees {
		w := g.NodeWeight(u)
		gain := make([]int64, m)
		nbrs, wts := g.Row(u)
		for i, v := range nbrs {
			if c := compact[v]; c >= 0 {
				gain[c] += wts[i]
			}
		}
		best, bestFits := -1, false
		for c := 0; c < m; c++ {
			fits := load[c]+w <= topo.Resources[survivors[c]]
			if best < 0 {
				best, bestFits = c, fits
				continue
			}
			switch {
			case fits != bestFits:
				if fits {
					best, bestFits = c, true
				}
			case gain[c] != gain[best]:
				if gain[c] > gain[best] {
					best = c
				}
			default:
				// Tie on fit and connectivity: prefer the roomier device.
				if topo.Resources[survivors[c]]-load[c] > topo.Resources[survivors[best]]-load[best] {
					best = c
				}
			}
		}
		compact[u] = best
		load[best] += w
	}
	return compact
}
