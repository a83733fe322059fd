// Package mlkp implements the baseline the paper compares against: a
// METIS-style Multi-Level K-Way Partitioner (Karypis–Kumar scheme). It
// minimizes the global edge cut under a node-weight balance factor and is
// deliberately oblivious to the paper's Bmax/Rmax mapping constraints —
// reproducing the behaviour the paper's tables show for METIS ("always
// partitions, regardless of said constraints").
package mlkp

import (
	"fmt"
	"math/rand"
	"time"

	"ppnpart/internal/arena"
	"ppnpart/internal/coarsen"
	"ppnpart/internal/graph"
	"ppnpart/internal/initpart"
	"ppnpart/internal/match"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
	"ppnpart/internal/refine"
)

// Options configures the baseline partitioner.
type Options struct {
	// K is the number of partitions. Required.
	K int
	// CoarsenTarget stops coarsening at this many nodes (default:
	// max(10·K, 100), mirroring METIS's 15–20·K region).
	CoarsenTarget int
	// Imbalance is the allowed node-weight imbalance factor (default
	// 1.03, METIS's ufactor 30 equivalent).
	Imbalance float64
	// RefinePasses bounds the k-way FM passes per level (default 8).
	RefinePasses int
	// Seed makes the run reproducible. Zero means seed 1 (still
	// deterministic: the baseline has no wall-clock dependence).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.CoarsenTarget <= 0 {
		o.CoarsenTarget = 10 * o.K
		if o.CoarsenTarget < 100 {
			o.CoarsenTarget = 100
		}
	}
	if o.Imbalance <= 1 {
		o.Imbalance = 1.03
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result carries the partition and run metadata.
type Result struct {
	// Parts is the assignment vector.
	Parts []int
	// K is the number of parts.
	K int
	// Levels is the depth of the multilevel hierarchy used.
	Levels int
	// Runtime is the wall-clock partitioning time.
	Runtime time.Duration
	// Report evaluates the partition (unconstrained: the baseline does
	// not know about Bmax/Rmax).
	Report metrics.Report
}

// Partition runs the multilevel k-way scheme on g.
func Partition(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.K <= 0 {
		return nil, fmt.Errorf("mlkp: K = %d must be positive", opts.K)
	}
	if g.NumNodes() < opts.K {
		return nil, fmt.Errorf("mlkp: cannot split %d nodes into %d parts", g.NumNodes(), opts.K)
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	ws := arena.Get()
	defer arena.Put(ws)
	csr := g.ToCSR()

	// Coarsening: heavy-edge matching only, the METIS default. Every
	// level, the finest included, is refined on the hierarchy's CSRs.
	hier, err := coarsen.BuildWS(ws, csr, coarsen.Options{
		TargetSize: opts.CoarsenTarget,
		Heuristics: []match.Heuristic{match.HeuristicHeavyEdge},
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("mlkp: coarsening: %v", err)
	}

	// Initial partitioning on the coarsest graph via recursive bisection.
	coarsest := hier.Coarsest()
	parts, err := initpart.RecursiveBisect(coarsest, opts.K, rng)
	if err != nil {
		return nil, fmt.Errorf("mlkp: initial partitioning: %v", err)
	}
	cfg := pstate.Config{K: opts.K, Constraints: metrics.Constraints{Rmax: balanceBound(g, opts)}}
	// refineLevel runs every refinement stage of one level on a single
	// partition state. The finest level adds the final balance
	// enforcement (projection cannot unbalance, but the initial partition
	// might exceed the factor on odd k).
	refineLevel := func(csr *graph.CSR, parts []int, finest bool) error {
		s, err := pstate.NewWS(ws, csr, parts, cfg)
		if err != nil {
			return err
		}
		refine.KWayFM(ws, s, opts.RefinePasses)
		if finest {
			refine.RebalanceResources(s, 8)
			refine.KWayFM(ws, s, opts.RefinePasses)
		}
		copy(parts, s.Parts())
		s.Release(ws)
		return nil
	}
	if err := refineLevel(coarsest, parts, hier.Depth() == 0); err != nil {
		return nil, fmt.Errorf("mlkp: refinement: %v", err)
	}

	// Uncoarsening with per-level k-way FM refinement.
	for lvl := hier.Depth(); lvl > 0; lvl-- {
		parts, err = hier.ProjectTo(parts, lvl, lvl-1)
		if err != nil {
			return nil, fmt.Errorf("mlkp: projection: %v", err)
		}
		if err := refineLevel(hier.GraphAt(lvl-1), parts, lvl == 1); err != nil {
			return nil, fmt.Errorf("mlkp: refinement: %v", err)
		}
	}

	res := &Result{
		Parts:   parts,
		K:       opts.K,
		Levels:  hier.Depth(),
		Runtime: time.Since(start),
		Report:  metrics.Evaluate(g, parts, opts.K, metrics.Constraints{}),
	}
	return res, nil
}

// balanceBound converts the imbalance factor into an absolute per-part
// resource bound.
func balanceBound(g *graph.Graph, opts Options) int64 {
	ideal := float64(g.TotalNodeWeight()) / float64(opts.K)
	b := int64(ideal * opts.Imbalance)
	// Never below the heaviest single node, or nothing could move.
	if m := g.MaxNodeWeight(); b < m {
		b = m
	}
	return b
}
