package main

import (
	"fmt"
	"math/rand"
	"time"

	"ppnpart/internal/core"
	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/ppn"
)

// scale sizes the workloads. fullScale is the benchmark; the smoke tests
// run the same code on smokeScale inputs.
type scale struct {
	multilevelN    int
	batchThreshold int // 0 keeps the solver default (50000)
	fanoutProcs    int
	streamN        int
	ppndN          int
	ppndPool       int
	ppndWarm       int
	minOps         int // solves a window makes even when they overrun it
}

var fullScale = scale{
	multilevelN: 100000,
	fanoutProcs: 20000,
	streamN:     500000,
	ppndN:       1000,
	ppndPool:    64,
	ppndWarm:    32,
	minOps:      3,
}

// A run builds its inputs at least minSetupReps times and until
// setupBudget has passed (at most maxSetupReps times); setup_s is the
// median build time, so neither a slow first build (page faults on fresh
// heap) nor a burst of contention on the host sets it.
const (
	minSetupReps = 3
	maxSetupReps = 1000
	setupBudget  = time.Second
)

// timeSetup builds a workload's inputs repeatedly, records the median
// build time as setup_s, and returns the last build; every other build is
// closed. A traced run, which does not report setup_s, builds once.
func timeSetup[T any](r *run, build func() (T, func(), error)) (T, func(), error) {
	var (
		out   T
		close func()
		ds    []float64
	)
	start := time.Now()
	for len(ds) < minSetupReps || (time.Since(start) < setupBudget && len(ds) < maxSetupReps) {
		if close != nil {
			close()
		}
		// Drop the previous build so the collector can reclaim it while
		// this one allocates, as a long-lived process would.
		var zero T
		out = zero
		t := time.Now()
		v, c, err := build()
		d := time.Since(t)
		if err != nil {
			return out, nil, err
		}
		out, close = v, c
		ds = append(ds, d.Seconds())
		if r.trace {
			return out, close, nil
		}
	}
	r.set("setup_s", median(ds), len(ds))
	return out, close, nil
}

// solveCase is one partitioning problem a solve workload repeats.
type solveCase struct {
	name  string
	g     *graph.Graph
	opts  core.Options
	fixed bool // the instance does not depend on the seed; cut sums these
}

// fixedSeed generates the instance that every run of a generated workload
// solves besides its own seed's. The workload's cut is measured on the
// fixed instance alone, so it reads the same at every seed: two commits
// differ in it only if their partitions differ, and its bound can be 0.
// The seed's instance still varies what the timings cover.
const fixedSeed = 0

// fixedAndSeeded builds a generated workload's two cases, the fixed one
// first, from the generator seeded with fixedSeed and with the run's seed.
func fixedAndSeeded(r *run, name string, build func(rng *rand.Rand) (*graph.Graph, core.Options, error)) ([]solveCase, func(), error) {
	var cs []solveCase
	for i, seed := range []int64{fixedSeed, r.seed} {
		g, opts, err := build(rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, nil, err
		}
		cs = append(cs, solveCase{name: fmt.Sprintf("%s.seed%d", name, seed), g: g, opts: opts, fixed: i == 0})
	}
	return cs, noClose, nil
}

// caps returns constraints every workload instance can meet: Rmax leaves
// slack·W/K plus the heaviest node per part, and Bmax (when wanted) allows
// twice the average edge weight a part could carry.
func caps(g *graph.Graph, k int, slack float64, withBmax bool) metrics.Constraints {
	c := metrics.Constraints{Rmax: int64(slack*float64(g.TotalNodeWeight())/float64(k)) + g.MaxNodeWeight()}
	if withBmax {
		c.Bmax = 2 * g.TotalEdgeWeight() / int64(k)
	}
	return c
}

func randomGraph(rng *rand.Rand, n int) (*graph.Graph, error) {
	return gen.RandomConnected(n, 3*n, gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20}, rng)
}

func noClose() {}

var (
	paperRule = layerRule{
		zero: []string{"coarsen.", "match.", "refine.batch_", "refine.replicate_", "stream.",
			"server.", "loadgen.", "metrics.hyperedge_cut"},
		positive: []string{"engine.seed_ms", "engine.refine_ms", "refine.serial_level_ms", "refine.fm_passes"},
	}
	multilevelRule = layerRule{
		zero: []string{"refine.replicate_", "stream.", "server.", "loadgen.", "metrics.hyperedge_cut"},
		positive: []string{"coarsen.levels", "engine.coarsen_ms", "match.compute_ms.heavy-edge",
			"refine.batch_level_ms", "refine.batch_rounds", "refine.serial_level_ms"},
	}
	fanoutRule = layerRule{
		zero:     []string{"refine.batch_", "stream.", "server.", "loadgen."},
		positive: []string{"coarsen.levels", "refine.replicate_ms", "refine.replicate_trials", "metrics.hyperedge_cut"},
	}
	streamRule = layerRule{
		zero: []string{"engine.", "coarsen.", "match.", "refine.", "server.", "loadgen.",
			"metrics.hyperedge_cut"},
		positive: []string{"stream.partition_ms", "stream.passes", "stream.moves_per_pass"},
	}
)

// runPaperSmall solves the paper's three 12-node experiments at K=4 with
// their own Bmax/Rmax. The instances are fixed; the seed does not change
// them.
func runPaperSmall(r *run) error {
	cases, _, err := timeSetup(r, func() ([]solveCase, func(), error) {
		insts, err := gen.AllPaperInstances()
		if err != nil {
			return nil, nil, err
		}
		var cs []solveCase
		for _, in := range insts {
			cs = append(cs, solveCase{name: in.Name, g: in.G, fixed: true,
				opts: core.Options{K: in.K, Constraints: in.Constraints, Seed: 1, MaxCycles: 24}})
		}
		return cs, noClose, nil
	})
	if err != nil {
		return err
	}
	return solveWorkload(r, cases)
}

// runMultilevel solves random 100k-node graphs at K=16 in rotation: the
// instances where coarsening and batch refinement dominate.
func runMultilevel(r *run) error {
	cases, _, err := timeSetup(r, func() ([]solveCase, func(), error) {
		return fixedAndSeeded(r, "multilevel", func(rng *rand.Rand) (*graph.Graph, core.Options, error) {
			g, err := randomGraph(rng, r.scale.multilevelN)
			if err != nil {
				return nil, core.Options{}, err
			}
			return g, core.Options{K: 16, Constraints: caps(g, 16, 1.15, true), MaxCycles: 8,
				BatchRefineThreshold: r.scale.batchThreshold}, nil
		})
	})
	if err != nil {
		return err
	}
	return solveWorkload(r, cases)
}

// runFanout solves random fanout process networks lowered with hyperedges
// at K=8 with the replication pass on.
func runFanout(r *run) error {
	cases, _, err := timeSetup(r, func() ([]solveCase, func(), error) {
		return fixedAndSeeded(r, "fanout", func(rng *rand.Rand) (*graph.Graph, core.Options, error) {
			net, err := gen.RandomFanoutPPN(r.scale.fanoutProcs, gen.WeightRange{Lo: 10, Hi: 100},
				gen.WeightRange{Lo: 1, Hi: 5}, rng)
			if err != nil {
				return nil, core.Options{}, err
			}
			g, err := net.ToGraphHyper(ppn.DefaultResourceModel())
			if err != nil {
				return nil, core.Options{}, err
			}
			return g, core.Options{K: 8, Constraints: caps(g, 8, 1.25, false), MaxCycles: 8, Replicate: true}, nil
		})
	})
	if err != nil {
		return err
	}
	return solveWorkload(r, cases)
}

// runStream solves random 500k-node graphs at K=16 with the streaming
// partitioner.
func runStream(r *run) error {
	cases, _, err := timeSetup(r, func() ([]solveCase, func(), error) {
		return fixedAndSeeded(r, "stream", func(rng *rand.Rand) (*graph.Graph, core.Options, error) {
			g, err := randomGraph(rng, r.scale.streamN)
			if err != nil {
				return nil, core.Options{}, err
			}
			return g, core.Options{K: 16, Constraints: caps(g, 16, 1.15, true), Algo: core.AlgoStream}, nil
		})
	})
	if err != nil {
		return err
	}
	return solveWorkload(r, cases)
}

// solveRef is the checked outcome of a case's first solve. Every later
// solve of the case must reproduce it bit for bit, which makes the full
// recomputation of the first solve hold for them too.
type solveRef struct {
	parts, replicas uint64
	res             *core.Result
	edgeCut         int64 // delivered pairwise cut (replication-aware)
	hyperCut        int64 // delivered hyperedge connectivity cost
}

// referenceSolves solves each case once, untimed, and checks the results
// in full. The first one made is also the warm-up that fills the arena and
// pool before anything is timed.
func referenceSolves(r *run, cases []solveCase) ([]solveRef, error) {
	refs := make([]solveRef, len(cases))
	for i, c := range cases {
		res, err := core.Partition(c.g, c.opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		ref, err := checkSolve(c, res)
		r.op(err)
		if err != nil {
			return nil, err
		}
		refs[i] = ref
	}
	return refs, nil
}

// sameAsRef checks a repeated solve against its case's reference.
func sameAsRef(c solveCase, ref solveRef, res *core.Result) error {
	rep, want := res.Report, ref.res.Report
	switch {
	case hashInts(res.Parts) != ref.parts:
		return fmt.Errorf("%s: repeated solve returned a different partition", c.name)
	case hashInts(res.Replicas) != ref.replicas:
		return fmt.Errorf("%s: repeated solve returned different replicas", c.name)
	case rep.EdgeCut != want.EdgeCut || rep.HyperCut != want.HyperCut ||
		rep.MaxLocalBandwidth != want.MaxLocalBandwidth || rep.MaxResource != want.MaxResource:
		return fmt.Errorf("%s: repeated solve reported different metrics", c.name)
	case res.Feasible != ref.res.Feasible || res.Goodness != ref.res.Goodness:
		return fmt.Errorf("%s: repeated solve reported a different score", c.name)
	}
	return nil
}

// forWindow calls op(0), op(1), ... until starting another call would,
// judged by the previous call's duration, run past the window; it makes at
// least minOps calls either way. It returns the number of calls.
func forWindow(window time.Duration, minOps int, op func(i int)) int {
	deadline := time.Now().Add(window)
	var last time.Duration
	i := 0
	for ; i < minOps || !time.Now().Add(last).After(deadline); i++ {
		t := time.Now()
		op(i)
		last = time.Since(t)
	}
	return i
}

// solveWorkload runs the shared closed loop of the solve workloads: one
// caller, cases in rotation, each solve timed alone. The first case's
// reference solve is the warm-up; the others run warm, so their time
// counts against the window.
func solveWorkload(r *run, cases []solveCase) error {
	refs, err := referenceSolves(r, cases[:1])
	if err != nil {
		return err
	}
	end := time.Now().Add(r.window)
	more, err := referenceSolves(r, cases[1:])
	if err != nil {
		return err
	}
	refs = append(refs, more...)
	window := time.Until(end)
	if r.trace {
		return traceSolves(r, cases, refs, window)
	}
	c0 := readCounters()
	var lat []float64
	forWindow(window, max(r.scale.minOps, len(cases)), func(i int) {
		c := cases[i%len(cases)]
		t := time.Now()
		res, err := core.Partition(c.g, c.opts)
		lat = append(lat, ms(time.Since(t)))
		if err == nil {
			err = sameAsRef(c, refs[i%len(cases)], res)
		}
		r.op(err)
	})
	c1 := readCounters()
	var cut int64
	for i, ref := range refs {
		if cases[i].fixed {
			cut += ref.edgeCut + ref.hyperCut
		}
	}
	r.set("latency_p50_ms", median(lat), len(lat))
	r.set("cut", float64(cut), 0)
	r.set("alloc_mb_per_op", allocMBPerOp(c0, c1, len(lat)), len(lat))
	r.set("peak_rss_mb", peakRSSMB(), 0)
	return nil
}
