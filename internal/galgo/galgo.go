// Package galgo implements a genetic-algorithm partitioner in the style
// the paper's related work surveys (§II, Bui & Moon's GA for graph
// partitioning), adapted to the constrained problem: the fitness function
// is GP's goodness (feasibility first, cut second), so the GA competes on
// the same objective. It serves as the related-work comparator in the E3
// study — quantifying why the multilevel approach wins on time-to-quality
// — and as an independent reference point for GP's solution quality.
//
// The implementation is a steady-state memetic GA: tournament selection,
// uniform crossover, point mutation, a light greedy repair/improvement
// pass on offspring (k-way FM, resource rebalance), and elitism. All
// randomness is seeded; runs are reproducible.
package galgo

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/initpart"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
	"ppnpart/internal/refine"
)

// Options configures the GA.
type Options struct {
	// K is the number of partitions. Required.
	K int
	// Constraints are folded into the fitness (goodness) function.
	Constraints metrics.Constraints
	// PopSize is the population size (default 48).
	PopSize int
	// Generations bounds the evolution (default 150).
	Generations int
	// MutationRate is the per-node reassignment probability (default
	// 0.02).
	MutationRate float64
	// TournamentK is the tournament selection size (default 3).
	TournamentK int
	// Elite is the number of top individuals copied unchanged into the
	// next generation (default 2).
	Elite int
	// Memetic enables the local-improvement pass on offspring (default
	// true via the zero value being interpreted as enabled; set
	// DisableMemetic to turn off).
	DisableMemetic bool
	// Patience stops early after this many generations without
	// improvement (default 30).
	Patience int
	// Seed makes the run reproducible (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.PopSize <= 0 {
		o.PopSize = 48
	}
	if o.Generations <= 0 {
		o.Generations = 150
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 0.02
	}
	if o.TournamentK <= 0 {
		o.TournamentK = 3
	}
	if o.Elite <= 0 {
		o.Elite = 2
	}
	if o.Elite >= o.PopSize {
		o.Elite = o.PopSize / 2
	}
	if o.Patience <= 0 {
		o.Patience = 30
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result is the GA's outcome.
type Result struct {
	// Parts is the best assignment found.
	Parts []int
	// Feasible reports whether Parts meets the constraints.
	Feasible bool
	// Goodness is the fitness of Parts (lower is better).
	Goodness float64
	// Generations is the number of generations evolved.
	Generations int
	// Runtime is the wall-clock time.
	Runtime time.Duration
	// Report evaluates the partition.
	Report metrics.Report
}

type individual struct {
	parts   []int
	fitness float64
}

// Partition evolves a K-way partition of g.
func Partition(g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n := g.NumNodes()
	if opts.K <= 0 {
		return nil, fmt.Errorf("galgo: K = %d must be positive", opts.K)
	}
	if n < opts.K {
		return nil, fmt.Errorf("galgo: cannot split %d nodes into %d parts", n, opts.K)
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	// g never changes, so one workspace and CSR snapshot serve every
	// seeding and offspring improvement.
	ws := arena.Get()
	defer arena.Put(ws)
	csr := g.ToCSR()
	stCfg := pstate.Config{K: opts.K, Constraints: opts.Constraints}

	evalFit := func(parts []int) float64 {
		return metrics.Goodness(g, parts, opts.K, opts.Constraints)
	}
	improve := func(parts []int) {
		if opts.DisableMemetic {
			return
		}
		s, err := pstate.NewWS(ws, csr, parts, stCfg)
		if err != nil {
			return
		}
		refine.KWayFM(ws, s, 2)
		refine.RebalanceResources(s, 2)
		refine.RepairBandwidth(ws, s, 2)
		copy(parts, s.Parts())
		s.Release(ws)
	}

	// Seed the population: a few greedy individuals for quality, the rest
	// random for diversity.
	pop := make([]individual, opts.PopSize)
	for i := range pop {
		var parts []int
		var err error
		if i < 4 {
			// The ws-backed winner is kept, never put back.
			parts, err = initpart.GreedyGrowWS(ws, csr, initpart.GreedyOptions{
				K: opts.K, Restarts: 2, Constraints: opts.Constraints,
			}, rng)
		} else {
			parts, err = initpart.RandomPartitionWS(ws, csr, opts.K, rng)
		}
		if err != nil {
			return nil, err
		}
		improve(parts)
		pop[i] = individual{parts: parts, fitness: evalFit(parts)}
	}
	sortPop(pop)

	best := clone(pop[0])
	sinceImprove := 0
	gens := 0
	for gen := 0; gen < opts.Generations && sinceImprove < opts.Patience; gen++ {
		gens++
		next := make([]individual, 0, opts.PopSize)
		for e := 0; e < opts.Elite; e++ {
			next = append(next, clone(pop[e]))
		}
		for len(next) < opts.PopSize {
			a := tournament(pop, opts.TournamentK, rng)
			b := tournament(pop, opts.TournamentK, rng)
			child := crossover(a.parts, b.parts, rng)
			mutate(child, opts.K, opts.MutationRate, rng)
			fixEmpty(g, child, opts.K, rng)
			improve(child)
			next = append(next, individual{parts: child, fitness: evalFit(child)})
		}
		pop = next
		sortPop(pop)
		if pop[0].fitness < best.fitness {
			best = clone(pop[0])
			sinceImprove = 0
		} else {
			sinceImprove++
		}
	}

	res := &Result{
		Parts:       best.parts,
		Feasible:    metrics.Feasible(g, best.parts, opts.K, opts.Constraints),
		Goodness:    best.fitness,
		Generations: gens,
		Runtime:     time.Since(start),
		Report:      metrics.Evaluate(g, best.parts, opts.K, opts.Constraints),
	}
	return res, nil
}

func sortPop(pop []individual) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].fitness < pop[j].fitness })
}

func clone(ind individual) individual {
	return individual{parts: append([]int(nil), ind.parts...), fitness: ind.fitness}
}

// tournament picks the fittest of k random individuals.
func tournament(pop []individual, k int, rng *rand.Rand) individual {
	best := &pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		cand := &pop[rng.Intn(len(pop))]
		if cand.fitness < best.fitness {
			best = cand
		}
	}
	return *best
}

// crossover is uniform per-node selection between two parents.
func crossover(a, b []int, rng *rand.Rand) []int {
	child := make([]int, len(a))
	for i := range child {
		if rng.Intn(2) == 0 {
			child[i] = a[i]
		} else {
			child[i] = b[i]
		}
	}
	return child
}

// mutate reassigns each node with the given probability.
func mutate(parts []int, k int, rate float64, rng *rand.Rand) {
	for i := range parts {
		if rng.Float64() < rate {
			parts[i] = rng.Intn(k)
		}
	}
}

// fixEmpty guarantees every part id owns at least one node.
func fixEmpty(g *graph.Graph, parts []int, k int, rng *rand.Rand) {
	sizes := metrics.PartSizes(parts, k)
	for p := 0; p < k; p++ {
		for sizes[p] == 0 {
			u := rng.Intn(len(parts))
			if sizes[parts[u]] > 1 {
				sizes[parts[u]]--
				parts[u] = p
				sizes[p]++
			}
		}
	}
}
