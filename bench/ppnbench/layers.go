package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"ppnpart/internal/arena"
	"ppnpart/internal/coarsen"
	"ppnpart/internal/core"
	"ppnpart/internal/engine"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pool"
	"ppnpart/internal/pstate"
	"ppnpart/internal/refine"
	"ppnpart/internal/stream"
)

// The traced run measures each layer from outside: it wraps the engine's
// stages in timing stages, reads the engine's own trace records, and
// replays the public calls of the lower layers on the workload's data.
// Nothing inside the program is instrumented for it.

var (
	phases      = [...]engine.Phase{engine.PhaseCoarsen, engine.PhaseInitialPartition, engine.PhaseUncoarsen, engine.PhaseRefine, engine.PhaseRetry}
	phaseMetric = [...]string{"engine.coarsen_ms", "engine.seed_ms", "engine.uncoarsen_ms", "engine.refine_ms", "engine.retry_ms"}
)

// stageClock sums busy time per engine phase across every cycle of the
// traced solves. Cycles run concurrently, so the sums are atomic and can
// exceed wall time.
type stageClock struct {
	busy   [len(phases)]atomic.Int64
	stream atomic.Int64 // initial-partition time spent in the stream seeder
}

// timedStage delegates to the engine's own stage and adds its run time to
// a stageClock slot.
type timedStage struct {
	engine.Stage
	busy   *atomic.Int64
	stream *atomic.Int64 // set on the initial-partition stage only
}

func (s timedStage) Run(cy *engine.Cycle) error {
	start := time.Now()
	err := s.Stage.Run(cy)
	d := int64(time.Since(start))
	s.busy.Add(d)
	if s.stream != nil {
		if ct := cy.Trace(); ct != nil && ct.Seeding != nil && ct.Seeding.Method == "stream" {
			s.stream.Add(d)
		}
	}
	return err
}

func timedSolver(cfg engine.Config, clk *stageClock) *engine.Solver {
	s := engine.New(cfg)
	for i, p := range phases {
		ts := timedStage{Stage: s.Stage(p), busy: &clk.busy[i]}
		if p == engine.PhaseInitialPartition {
			ts.stream = &clk.stream
		}
		s.SetStage(ts)
	}
	return s
}

// engineConfig maps core.Options onto the engine the way core does. The
// traced run checks that its solves reproduce core.Partition's partitions,
// so a drift between this mapping and core's shows as a failure.
func engineConfig(o core.Options) engine.Config {
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

// streamOptions maps core.Options onto the streaming partitioner the way
// core's AlgoStream path does.
func streamOptions(o core.Options) stream.Options {
	return stream.Options{
		K:             o.K,
		Constraints:   o.Constraints,
		Gamma:         o.StreamGamma,
		MaxIterations: o.StreamIterations,
		Workers:       o.Parallelism,
		Seed:          o.Seed,
		Order:         stream.OrderNatural,
	}
}

// streamAgg accumulates streaming passes, from the stream workload's own
// solves or from the engine's stream seeder.
type streamAgg struct {
	ns                                    int64
	passes, restreams, restreamMoves, rej int
}

func (s *streamAgg) add(iters []stream.IterTrace) {
	s.passes += len(iters)
	for _, it := range iters {
		if it.Iter > 0 {
			s.restreams++
			s.restreamMoves += it.Moves
		}
		if !it.Accepted {
			s.rej++
		}
	}
}

func (s *streamAgg) set(r *run, solves int) {
	n := float64(solves)
	r.set("stream.partition_ms", ms(time.Duration(s.ns))/n, solves)
	r.set("stream.passes", float64(s.passes)/n, solves)
	r.set("stream.moves_per_pass", ratio(float64(s.restreamMoves), float64(s.restreams)), s.restreams)
	r.set("stream.rejected_passes", float64(s.rej)/n, solves)
	r.set("stream.ms_per_pass", ratio(ms(time.Duration(s.ns)), float64(s.passes)), s.passes)
}

// engineAgg accumulates the evidence of the traced engine solves.
type engineAgg struct {
	solves                    int
	clk                       stageClock
	wall                      time.Duration
	cycles, discarded, pruned int
	levels                    int
	ratioSum                  float64
	wins                      map[string]int
	serialNS, batchNS         int64
	serialLevels              int
	pipeWins                  [3]int
	fmPasses, fmMoves         int
	batchRounds, batchMoves   int
	batchCands, degraded      int
	stream                    streamAgg
}

func (a *engineAgg) add(d engine.TraceData) {
	for _, ct := range d.Cycles {
		a.cycles++
		if ct.Discarded {
			a.discarded++
		}
		if ct.Pruned {
			a.pruned++
		}
		for _, lt := range ct.Levels {
			a.levels++
			a.ratioSum += lt.Ratio
			a.wins[lt.Heuristic]++
		}
		if st := ct.Seeding; st != nil {
			a.stream.add(st.Stream)
		}
		for _, rt := range ct.Refines {
			a.fmPasses += rt.FMPasses
			a.fmMoves += rt.FMMoves
			if rt.Mode == "batch" {
				a.batchNS += rt.WallNS
			} else {
				a.serialNS += rt.WallNS
			}
			if rt.Pipeline >= 0 && rt.Pipeline < len(a.pipeWins) {
				a.serialLevels++
				a.pipeWins[rt.Pipeline]++
			}
			if b := rt.Batch; b != nil {
				a.batchRounds += b.Rounds
				a.batchMoves += b.Moves
				for _, c := range b.RoundCands {
					a.batchCands += c
				}
				if b.Degraded {
					a.degraded++
				}
			}
		}
	}
}

func (a *engineAgg) set(r *run) {
	n := float64(a.solves)
	var busy int64
	for i, name := range phaseMetric {
		b := a.clk.busy[i].Load()
		busy += b
		r.set(name, ms(time.Duration(b))/n, a.solves)
	}
	lv := float64(a.levels)
	r.set("engine.cycles", float64(a.cycles)/n, a.solves)
	r.set("engine.cycles_discarded_frac", ratio(float64(a.discarded), float64(a.cycles)), a.cycles)
	r.set("engine.cycles_pruned_frac", ratio(float64(a.pruned), float64(a.cycles)), a.cycles)
	r.set("engine.busy_over_wall", ratio(float64(busy), float64(a.wall)), a.solves)
	r.set("coarsen.levels", ratio(lv, float64(a.cycles)), a.cycles)
	r.set("coarsen.mean_ratio", ratio(a.ratioSum, lv), a.levels)
	r.set("match.win_frac.random", ratio(float64(a.wins[match.HeuristicRandom.String()]), lv), a.levels)
	r.set("match.win_frac.heavy-edge", ratio(float64(a.wins[match.HeuristicHeavyEdge.String()]), lv), a.levels)
	r.set("match.win_frac.kmeans", ratio(float64(a.wins[match.HeuristicKMeans.String()]), lv), a.levels)
	r.set("refine.serial_level_ms", ms(time.Duration(a.serialNS))/n, a.solves)
	r.set("refine.batch_level_ms", ms(time.Duration(a.batchNS))/n, a.solves)
	r.set("refine.fm_passes", float64(a.fmPasses)/n, a.solves)
	r.set("refine.fm_moves", float64(a.fmMoves)/n, a.solves)
	r.set("refine.batch_rounds", float64(a.batchRounds)/n, a.solves)
	r.set("refine.batch_moves", float64(a.batchMoves)/n, a.solves)
	r.set("refine.batch_accept_frac", ratio(float64(a.batchMoves), float64(a.batchCands)), a.batchCands)
	for i, w := range a.pipeWins {
		r.set(fmt.Sprintf("refine.pipeline_win_frac.%d", i), ratio(float64(w), float64(a.serialLevels)), a.serialLevels)
	}
	r.set("refine.degraded_levels", float64(a.degraded)/n, a.solves)
	a.stream.ns = a.clk.stream.Load()
	a.stream.set(r, a.solves)
}

// replicateAgg accumulates the timed replication passes.
type replicateAgg struct {
	runs, trials, clones int
	ns                   int64
}

func (a *replicateAgg) set(r *run) {
	r.set("refine.replicate_ms", ratio(ms(time.Duration(a.ns)), float64(a.runs)), a.runs)
	r.set("refine.replicate_trials", ratio(float64(a.trials), float64(a.runs)), a.runs)
	r.set("refine.replicate_clone_frac", ratio(float64(a.clones), float64(a.trials)), a.trials)
	r.set("refine.replicate_ns_per_trial", ratio(float64(a.ns), float64(a.trials)), a.trials)
}

// counters snapshots the shared pool and arena counters and the runtime's
// allocation and GC totals.
type counters struct {
	runs, tasks, cold int64
	gc                uint32
	alloc             uint64
}

func readCounters() counters {
	ps := pool.Default().Stats()
	_, cold, _ := arena.Stats()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return counters{runs: ps.Runs, tasks: ps.Tasks, cold: cold, gc: m.NumGC, alloc: m.TotalAlloc}
}

// allocMBPerOp is the allocation between c0 and c1 per operation, in MiB.
func allocMBPerOp(c0, c1 counters, ops int) float64 {
	return float64(c1.alloc-c0.alloc) / float64(ops) / (1 << 20)
}

// setPerSolve records the counter deltas between c0 and c1 per operation.
func setPerSolve(r *run, c0, c1 counters, ops int) {
	n := float64(ops)
	r.set("pool.runs_per_solve", float64(c1.runs-c0.runs)/n, ops)
	r.set("pool.tasks_per_solve", float64(c1.tasks-c0.tasks)/n, ops)
	r.set("arena.cold_checkouts_per_solve", float64(c1.cold-c0.cold)/n, ops)
	r.set("core.gc_per_solve", float64(c1.gc-c0.gc)/n, ops)
}

// sameEngineOutcome checks an engine solve against the core.Partition
// reference of its case: the traced path must not change a bit.
func sameEngineOutcome(c solveCase, ref solveRef, out *engine.Outcome) error {
	switch {
	case out.Stopped:
		return fmt.Errorf("%s: engine solve stopped early", c.name)
	case hashInts(out.Parts) != ref.parts:
		return fmt.Errorf("%s: engine solve returned a partition other than core.Partition's", c.name)
	case out.Feasible != ref.res.Feasible:
		return fmt.Errorf("%s: engine solve feasible=%v, core.Partition %v", c.name, out.Feasible, ref.res.Feasible)
	}
	return nil
}

// traceSolves is the traced run of a solve workload over the window.
func traceSolves(r *run, cases []solveCase, refs []solveRef, window time.Duration) error {
	if cases[0].opts.Algo == core.AlgoStream {
		if err := traceStream(r, cases, refs, window); err != nil {
			return err
		}
	} else {
		c0 := readCounters()
		ops := traceEngine(r, cases, refs, window)
		setPerSolve(r, c0, readCounters(), ops)
	}
	return replayLayers(r, cases, refs)
}

// traceEngine alternates traced and plain engine solves over the cases
// for the window, then measures the cycle fan-out at Parallelism 1. The
// returned count covers the window's solves only.
func traceEngine(r *run, cases []solveCase, refs []solveRef, window time.Duration) int {
	ctx := context.Background()
	cfgs := make([]engine.Config, len(cases))
	for i, c := range cases {
		cfgs[i] = engineConfig(c.opts)
	}
	agg := engineAgg{wins: map[string]int{}}
	var rep replicateAgg
	traced := make([][]float64, len(cases))
	plain := make([][]float64, len(cases))
	var plainAll []float64
	ops := forWindow(window, max(2*len(cases), 2*r.scale.minOps), func(i int) {
		ci := (i / 2) % len(cases)
		c := cases[ci]
		t := time.Now()
		var out *engine.Outcome
		if i%2 == 0 {
			tr := &engine.Trace{}
			out = timedSolver(cfgs[ci], &agg.clk).Solve(ctx, c.g, tr)
			d := time.Since(t)
			agg.wall += d
			agg.solves++
			agg.add(tr.Data())
			traced[ci] = append(traced[ci], ms(d))
		} else {
			out = engine.New(cfgs[ci]).Solve(ctx, c.g, nil)
			d := ms(time.Since(t))
			plain[ci] = append(plain[ci], d)
			plainAll = append(plainAll, d)
		}
		err := sameEngineOutcome(c, refs[ci], out)
		if err == nil && c.opts.Replicate {
			err = timeReplicate(c, refs[ci], out.Parts, &rep)
		}
		r.op(err)
	})
	agg.set(r)
	rep.set(r)
	r.set("engine.trace_overhead_frac", ratio(sumMedians(traced), sumMedians(plain))-1, agg.solves)
	r.set("engine.solve_p99_ms", tail(plainAll, 99), len(plainAll))

	// The cycle fan-out must give the same bits at width 1; its speedup is
	// the serial wall over the default wall, case medians summed.
	single := make([][]float64, len(cases))
	start := time.Now()
	for i := 0; i < len(cases) || time.Since(start) < window/10; i++ {
		ci := i % len(cases)
		cfg := cfgs[ci]
		cfg.Parallelism = 1
		t := time.Now()
		out := engine.New(cfg).Solve(ctx, cases[ci].g, nil)
		single[ci] = append(single[ci], ms(time.Since(t)))
		r.op(sameEngineOutcome(cases[ci], refs[ci], out))
	}
	r.set("engine.cycle_fanout_speedup", ratio(sumMedians(single), sumMedians(plain)), len(single[0]))
	return ops
}

func sumMedians(perCase [][]float64) float64 {
	var s float64
	for _, xs := range perCase {
		s += median(xs)
	}
	return s
}

// timeReplicate runs core's replication pass on an engine partition and
// checks the overlay against core.Partition's.
func timeReplicate(c solveCase, ref solveRef, parts []int, agg *replicateAgg) error {
	t := time.Now()
	reps, st, err := refine.Replicate(c.g, parts, c.opts.K,
		pstate.Config{K: c.opts.K, Constraints: c.opts.Constraints},
		refine.ReplicateOptions{MaxClones: c.opts.MaxClones})
	agg.ns += int64(time.Since(t))
	if err != nil {
		return fmt.Errorf("%s: replicate: %w", c.name, err)
	}
	agg.runs++
	agg.trials += st.Trials
	agg.clones += st.Clones
	if hashInts(reps) != ref.replicas {
		return fmt.Errorf("%s: replication overlay differs from core.Partition's", c.name)
	}
	return nil
}

// traceStream times stream.PartitionCtx called as core's AlgoStream path
// calls it and reads its per-pass records.
func traceStream(r *run, cases []solveCase, refs []solveRef, window time.Duration) error {
	var agg streamAgg
	c0 := readCounters()
	solves := 0
	forWindow(window, max(r.scale.minOps, len(cases)), func(i int) {
		c := cases[i%len(cases)]
		t := time.Now()
		res, err := stream.PartitionCtx(context.Background(), c.g, streamOptions(c.opts))
		d := time.Since(t)
		if err == nil && hashInts(res.Parts) != refs[i%len(cases)].parts {
			err = fmt.Errorf("%s: stream.PartitionCtx returned a partition other than core.Partition's", c.name)
		}
		r.op(err)
		if err != nil {
			return
		}
		agg.ns += int64(d)
		agg.add(res.Iters)
		solves++
	})
	setPerSolve(r, c0, readCounters(), solves)
	if solves == 0 {
		return fmt.Errorf("no stream solve succeeded")
	}
	agg.set(r, solves)
	return nil
}

// replayBudget bounds each replayed call's repetitions (at least three run
// regardless), keeping a traced run's replays to a few seconds.
const replayBudget = 50 * time.Millisecond

// timeReps runs fn at least three times and until budget has passed, and
// returns the median run time in ms.
func timeReps(budget time.Duration, fn func()) float64 {
	var xs []float64
	start := time.Now()
	for len(xs) < 3 || (time.Since(start) < budget && len(xs) < 10000) {
		t := time.Now()
		fn()
		xs = append(xs, ms(time.Since(t)))
	}
	return median(xs)
}

// Sinks keep the replayed calls' results live.
var (
	sinkInt   int64
	sinkFloat float64
)

// pstateMoves is the length of the seeded move sequence the pstate probe
// replays.
const pstateMoves = 100000

// replayLayers times the lower layers' public calls on each case's graph
// and delivered partition, averaged over the cases. Matching and
// contraction are replayed only where the engine coarsened.
func replayLayers(r *run, cases []solveCase, refs []solveRef) error {
	coarsens := r.metrics["coarsen.levels"] > 0
	heuristics := []struct {
		h    match.Heuristic
		name string
	}{{match.HeuristicRandom, "random"}, {match.HeuristicHeavyEdge, "heavy-edge"}, {match.HeuristicKMeans, "kmeans"}}
	acc := map[string]float64{}
	var edgeCut, hyperCut int64
	for i, c := range cases {
		g, parts, k, cons := c.g, refs[i].res.Parts, c.opts.K, c.opts.Constraints
		acc["graph.to_csr_ms"] += timeReps(replayBudget, func() { g.ToCSR() })
		acc["metrics.evaluate_ms"] += timeReps(replayBudget, func() { sinkInt += metrics.Evaluate(g, parts, k, cons).EdgeCut })
		edgeCut += refs[i].edgeCut
		hyperCut += refs[i].hyperCut
		if coarsens {
			for _, h := range heuristics {
				var err error
				acc["match.compute_ms."+h.name] += timeReps(replayBudget, func() {
					_, err = match.Compute(h.h, g, 0, rand.New(rand.NewSource(r.seed)))
				})
				if err != nil {
					return err
				}
			}
			m, err := match.Compute(match.HeuristicHeavyEdge, g, 0, rand.New(rand.NewSource(r.seed)))
			if err != nil {
				return err
			}
			acc["coarsen.contract_ms"] += timeReps(replayBudget, func() { _, err = coarsen.Contract(g, m) })
			if err != nil {
				return err
			}
		}
		if err := probePState(r, c, parts, acc); err != nil {
			r.op(err)
		}
	}
	for name, v := range acc {
		r.set(name, v/float64(len(cases)), len(cases))
	}
	r.set("metrics.edge_cut", float64(edgeCut), len(cases))
	r.set("metrics.hyperedge_cut", float64(hyperCut), len(cases))
	return nil
}

// probePState times pstate on the case's CSR and delivered partition: the
// state build, and a fixed seeded sequence of moves for Move+Undo,
// MoveDelta and Score.
func probePState(r *run, c solveCase, parts []int, acc map[string]float64) error {
	csr := c.g.ToCSR()
	k := c.opts.K
	cfg := pstate.Config{K: k, Constraints: c.opts.Constraints}
	var (
		s   *pstate.State
		err error
	)
	acc["pstate.new_ms"] += timeReps(replayBudget, func() { s, err = pstate.New(csr, parts, cfg) })
	if err != nil {
		return fmt.Errorf("%s: pstate.New: %w", c.name, err)
	}
	rng := rand.New(rand.NewSource(r.seed))
	us := make([]graph.Node, pstateMoves)
	tos := make([]int, pstateMoves)
	for i := range us {
		u := rng.Intn(len(parts))
		us[i] = graph.Node(u)
		tos[i] = (parts[u] + 1 + rng.Intn(k-1)) % k
	}
	cut, obj := s.Cut(), s.Objective()
	t := time.Now()
	for i, u := range us {
		s.Move(u, tos[i])
		s.Undo()
	}
	acc["pstate.move_undo_ns"] += float64(time.Since(t)) / pstateMoves
	if s.Cut() != cut || s.Objective() != obj {
		return fmt.Errorf("%s: pstate Move+Undo did not restore the state", c.name)
	}
	t = time.Now()
	for i, u := range us {
		a, b, d := s.MoveDelta(u, tos[i])
		sinkInt += a + b + d
	}
	acc["pstate.move_delta_ns"] += float64(time.Since(t)) / pstateMoves
	t = time.Now()
	for range us {
		sinkFloat += s.Score()
	}
	acc["pstate.score_ns"] += float64(time.Since(t)) / pstateMoves
	return nil
}
