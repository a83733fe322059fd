// Package core implements the paper's contribution: GP, a Multi-Level
// K-Ways partitioner for process networks mapped onto multi-FPGA systems,
// subject to two simultaneous hard constraints (§I, §IV):
//
//   - bandwidth: the traffic between every pair of partitions must not
//     exceed Bmax (the inter-FPGA link capacity);
//   - resource: the node-weight total of every partition must not exceed
//     Rmax (the per-FPGA resource budget).
//
// GP follows the classic coarsen → initial-partition → uncoarsen+refine
// scheme with the paper's extensions: three competing matching heuristics
// per coarsening level (best kept), a greedy heaviest-seed initial
// partitioner with random restarts followed by FM-based bandwidth repair,
// goodness-ranked intermediate clusterings during uncoarsening, and a
// cyclic re-coarsen/re-partition loop that keeps retrying (with fresh
// randomness) until the constraints are met or the iteration budget is
// exhausted, in which case infeasibility is signalled (§IV-C).
//
// The search itself lives in internal/engine as an explicit staged
// pipeline; core is the stable public adapter: it validates and defaults
// Options, runs the engine, layers the optional replication pass on top,
// and assembles the Result with its violation report and messages.
package core

import (
	"context"
	"fmt"
	"time"

	"ppnpart/internal/engine"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
	"ppnpart/internal/refine"
	"ppnpart/internal/stream"
)

// Options configures the GP partitioner.
type Options struct {
	// K is the number of partitions (FPGAs). Required.
	K int
	// Constraints carries Bmax and Rmax. Zero values disable a bound.
	Constraints metrics.Constraints
	// CoarsenTarget stops coarsening at this many nodes (paper default
	// 100).
	CoarsenTarget int
	// Restarts is the number of random seeds the greedy initial
	// partitioner tries (paper default 10).
	Restarts int
	// MaxCycles bounds the cyclic re-coarsen/re-partition iterations
	// (default 16). A feasible result stops the loop early unless
	// MinimizeAfterFeasible is set.
	MaxCycles int
	// MinimizeAfterFeasible keeps cycling after the first feasible
	// partition to look for a lower cut, using the full MaxCycles budget.
	MinimizeAfterFeasible bool
	// RefinePasses bounds each local-search stage per level (default 8).
	RefinePasses int
	// Refine selects the per-level refinement strategy:
	// engine.RefineAuto (default) uses the data-parallel batch pass on
	// levels with at least BatchRefineThreshold nodes and the serial
	// competing pipelines below; engine.RefineSerial and
	// engine.RefineBatch force one strategy everywhere.
	Refine engine.RefineMode
	// BatchRefineThreshold overrides the auto-mode level size at and above
	// which batch refinement engages (default 50000 nodes).
	BatchRefineThreshold int
	// MatchHeuristics restricts the competing matchings; nil means all
	// three (random, heavy-edge, k-means), the paper's configuration.
	// Incompatible with NLevelCoarsening (which always contracts a single
	// heaviest edge); combining them is rejected by Validate.
	MatchHeuristics []match.Heuristic
	// NLevelCoarsening switches the coarsening phase to the one-edge-per-
	// level scheme of Osipov & Sanders (§III of the paper discusses it);
	// the default (false) is the paper's matching-based coarsening.
	NLevelCoarsening bool
	// Parallelism is the number of cycles explored concurrently once
	// the search widens (default GOMAXPROCS): cycle 0 runs alone with the
	// whole worker pool, and only an infeasible cycle 0 starts batches of
	// Parallelism cycles. MinimizeAfterFeasible searches every cycle, so
	// its batches are this wide from cycle 0 on. Results are reduced
	// deterministically, so any value yields the same partition as a
	// serial run.
	Parallelism int
	// Seed makes the run reproducible (default 1).
	Seed int64
	// Prune controls shared-incumbent pruning across parallel cycles.
	// The zero value, engine.PruneDeterministic, abandons cycles whose
	// result is provably discarded by the deterministic reduction —
	// results stay bit-identical to a serial run. engine.PruneOff
	// disables pruning.
	Prune engine.PruneMode
	// VectorResources optionally attaches multi-resource demands
	// (VectorResources[u][d] = node u's use of resource kind d, e.g.
	// BRAM and DSP alongside the scalar LUT weight). The paper handles a
	// single resource only (§V); this extension enforces every kind.
	VectorResources [][]int64
	// VectorConstraints bounds each kind per partition; only meaningful
	// with VectorResources.
	VectorConstraints metrics.VectorConstraints
	// Algo selects the partitioning strategy: AlgoGP (default, the
	// paper's multilevel search) or AlgoStream (the single-pass
	// streaming/restreaming fast path for huge graphs).
	Algo Algorithm
	// StreamSeedThreshold switches the multilevel engine's
	// initial-partition stage to the streaming partitioner on coarsest
	// graphs with at least this many nodes (0 = default 200000; negative
	// disables stream seeding). Only meaningful under AlgoGP.
	StreamSeedThreshold int
	// StreamIterations caps the restreaming passes: under AlgoStream the
	// standalone loop (default 8), under AlgoGP the in-engine stream
	// seeder (default 4). Zero selects the default.
	StreamIterations int
	// StreamGamma is the streaming objective's load-penalty exponent
	// (default 1.5; must be >= 1). Only meaningful under AlgoStream.
	StreamGamma float64
	// Replicate runs a post-refinement logic-replication pass: a node may
	// be cloned into a second partition when the resource headroom exists
	// and the goodness strictly improves (the RePart lever — a copy of a
	// producer next to its consumers deletes cut edges and stops hyperedge
	// stream forwarding). The assignment itself is untouched; the replica
	// overlay is returned in Result.Replicas. Off by default: the paper's
	// GP places exactly one copy of every process.
	Replicate bool
	// MaxClones bounds the replication pass (default 32). Only meaningful
	// with Replicate.
	MaxClones int
}

// vectorActive reports whether the multi-resource extension is engaged.
func (o Options) vectorActive() bool {
	return len(o.VectorResources) > 0 && o.VectorConstraints.Active()
}

// engineConfig adapts the search-relevant subset of Options to the
// engine's configuration (replication is a core-level extension applied
// to the engine's outcome).
func (o Options) engineConfig() engine.Config {
	return engine.Config{
		K:                     o.K,
		Constraints:           o.Constraints,
		CoarsenTarget:         o.CoarsenTarget,
		Restarts:              o.Restarts,
		MaxCycles:             o.MaxCycles,
		MinimizeAfterFeasible: o.MinimizeAfterFeasible,
		RefinePasses:          o.RefinePasses,
		Refine:                o.Refine,
		BatchThreshold:        o.BatchRefineThreshold,
		MatchHeuristics:       o.MatchHeuristics,
		NLevelCoarsening:      o.NLevelCoarsening,
		Parallelism:           o.Parallelism,
		Seed:                  o.Seed,
		Prune:                 o.Prune,
		VectorResources:       o.VectorResources,
		VectorConstraints:     o.VectorConstraints,
		StreamSeedThreshold:   o.StreamSeedThreshold,
		StreamIterations:      o.StreamIterations,
	}
}

// withDefaults fills unset fields via the engine's defaulting so both
// layers always agree on the effective configuration.
func (o Options) withDefaults() Options {
	c := o.engineConfig().WithDefaults()
	o.CoarsenTarget = c.CoarsenTarget
	o.Restarts = c.Restarts
	o.MaxCycles = c.MaxCycles
	o.RefinePasses = c.RefinePasses
	o.BatchRefineThreshold = c.BatchThreshold
	o.Parallelism = c.Parallelism
	o.Seed = c.Seed
	o.StreamSeedThreshold = c.StreamSeedThreshold
	o.StreamIterations = c.StreamIterations
	return o
}

// Result carries the partition and run metadata.
type Result struct {
	// Parts is the assignment vector (best found, even if infeasible).
	Parts []int
	// K is the number of parts.
	K int
	// Feasible reports whether both constraints are met.
	Feasible bool
	// Message explains an infeasible outcome, per the paper: either the
	// constraints are impossible or more iterations are needed.
	Message string
	// Cycles is the number of coarsen/uncoarsen cycles executed.
	Cycles int
	// Goodness is the score of the returned partition (lower is better;
	// equals the cut when feasible).
	Goodness float64
	// Runtime is the wall-clock partitioning time.
	Runtime time.Duration
	// Report evaluates the partition under the run's constraints.
	Report metrics.Report
	// Stopped is true when the run was cut short by context cancellation
	// or deadline expiry; Parts then holds the best partition found so
	// far (a round-robin fallback if no cycle finished) and Report its
	// violation report — a best-effort result rather than nothing.
	Stopped bool
	// StreamIters is the per-pass cut/imbalance trajectory of an
	// AlgoStream run (nil under AlgoGP); Cycles then counts the passes.
	StreamIters []stream.IterTrace
	// Replicas maps each node to the partition holding its clone, -1 for
	// none (nil when Options.Replicate is off). A replicated node runs in
	// both Parts[u] and Replicas[u].
	Replicas []int
	// ReplicatedNodes counts the clones the replication pass committed.
	ReplicatedNodes int
}

// Partition runs GP on g.
func Partition(g *graph.Graph, opts Options) (*Result, error) {
	return PartitionCtx(context.Background(), g, opts)
}

// PartitionCtx runs GP on g under a context. Cancellation or deadline
// expiry stops the cyclic re-coarsen search at the next level boundary
// and returns the best partition found so far together with its
// violation report (Result.Stopped is set); it never returns an error
// for cancellation alone. Invalid options are rejected up front with
// typed errors wrapping ErrInvalidOptions.
func PartitionCtx(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	return PartitionTraceCtx(ctx, g, opts, nil)
}

// PartitionTraceCtx is PartitionCtx with an optional structured solve
// trace: when tr is non-nil every engine stage records into it (per-level
// heuristic choices, contraction ratios, refinement outcomes, prune and
// retry decisions). A nil tr is free — every trace hook in the engine is
// a skipped nil check — and the chosen partition is bit-identical either
// way.
func PartitionTraceCtx(ctx context.Context, g *graph.Graph, opts Options, tr *engine.Trace) (*Result, error) {
	if err := opts.Validate(g); err != nil {
		return nil, err
	}
	if opts.Algo == AlgoStream {
		// The streaming fast path defaults its own knobs (notably a deeper
		// restream budget than the in-engine seeder), so dispatch before
		// the engine-aligned defaulting above would overwrite them.
		return partitionStream(ctx, g, opts)
	}
	opts = opts.withDefaults()
	start := time.Now()

	out := engine.New(opts.engineConfig()).Solve(ctx, g, tr)
	parts, goodness, feasible := out.Parts, out.Goodness, out.Feasible

	var replicas []int
	replicated := 0
	if opts.Replicate && !out.Stopped {
		cfg := pstate.Config{K: opts.K, Constraints: opts.Constraints}
		if opts.vectorActive() && len(parts) == len(opts.VectorResources) {
			cfg.Vectors = opts.VectorResources
			cfg.VectorConstraints = opts.VectorConstraints
		}
		reps, rst, rerr := refine.Replicate(g, parts, opts.K, cfg,
			refine.ReplicateOptions{MaxClones: opts.MaxClones})
		if rerr == nil {
			replicas = reps
			replicated = rst.Clones
			if rst.Clones > 0 {
				// The replica overlay's score replaces the single-copy one:
				// the pass only ever commits strict improvements.
				goodness = rst.ScoreAfter
			}
		}
	}

	res := &Result{
		Parts:    parts,
		K:        opts.K,
		Feasible: feasible,
		Cycles:   out.CyclesRun,
		Goodness: goodness,
		Runtime:  time.Since(start),
		Report:   metrics.Evaluate(g, parts, opts.K, opts.Constraints),
		Stopped:  out.Stopped,
	}
	res.Replicas = replicas
	res.ReplicatedNodes = replicated
	switch {
	case out.Stopped && !res.Feasible:
		res.Message = fmt.Sprintf(
			"search stopped early (%v) after %d cycles: returning best-effort infeasible partition (Bmax=%d, Rmax=%d)",
			ctx.Err(), out.CyclesRun, opts.Constraints.Bmax, opts.Constraints.Rmax)
	case out.Stopped:
		res.Message = fmt.Sprintf("search stopped early (%v) after %d cycles: returning best feasible partition found", ctx.Err(), out.CyclesRun)
	case !res.Feasible:
		res.Message = fmt.Sprintf(
			"no feasible %d-way partition found within %d cycles: constraints (Bmax=%d, Rmax=%d) are either impossible or need more iterations (raise MaxCycles)",
			opts.K, out.CyclesRun, opts.Constraints.Bmax, opts.Constraints.Rmax)
	}
	return res, nil
}
