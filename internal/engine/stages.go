package engine

import (
	"math"

	"ppnpart/internal/arena"
	"ppnpart/internal/chaos"
	"ppnpart/internal/coarsen"
	"ppnpart/internal/initpart"
	"ppnpart/internal/pstate"
	"ppnpart/internal/refine"
	"ppnpart/internal/stream"
)

// coarsenStage builds the multilevel hierarchy over the finest CSR, which
// cy.CSR still holds when the cycle starts. Construction failures degrade
// to a flat (no-hierarchy) run rather than aborting the cycle — hierarchy
// construction only fails on internal invariant breakage.
type coarsenStage struct{}

func (coarsenStage) Phase() Phase { return PhaseCoarsen }

func (coarsenStage) Run(cy *Cycle) error {
	var hier *coarsen.Hierarchy
	var err error
	if cy.Cfg.NLevelCoarsening {
		hier, err = coarsen.BuildNLevelWS(cy.WS, cy.CSR, cy.Cfg.CoarsenTarget)
	} else {
		hier, err = coarsen.BuildWS(cy.WS, cy.CSR, coarsen.Options{
			TargetSize: cy.Cfg.CoarsenTarget,
			Heuristics: cy.Cfg.MatchHeuristics,
			Pool:       cy.Cfg.Pool,
			// Candidate recording is the trace's per-level view of the
			// best-of-three competition; off-trace it costs nothing.
			RecordCandidates: cy.trace != nil,
		}, cy.RNG)
	}
	if err != nil {
		hier = &coarsen.Hierarchy{Original: cy.CSR}
	}
	cy.Hier = hier
	if ct := cy.trace; ct != nil {
		fine := cy.CSR.NumNodes()
		for i, lvl := range hier.Levels {
			coarse := lvl.Coarse.NumNodes()
			lt := LevelTrace{
				Level:       i,
				Heuristic:   lvl.Heuristic.String(),
				FineNodes:   fine,
				CoarseNodes: coarse,
				Ratio:       float64(coarse) / float64(fine),
			}
			for _, c := range lvl.Candidates {
				lt.Candidates = append(lt.Candidates, MatchTrace{
					Heuristic:     c.Heuristic.String(),
					MatchedWeight: c.MatchedWeight,
					Pairs:         c.Pairs,
				})
			}
			ct.Levels = append(ct.Levels, lt)
			fine = coarse
		}
	}
	return nil
}

// initialStage seeds the coarsest graph. Cycle 0 uses the paper's greedy
// scheme; later cycles alternate greedy (fresh random seeds) and purely
// random seeding — §IV-C: "we go back to coarsening phase and then
// partitioning phase (randomly), cyclically". It positions the cycle at
// the deepest level, whose CSR serves both seeding and the first
// refinement round.
type initialStage struct{}

func (initialStage) Phase() Phase { return PhaseInitialPartition }

func (initialStage) Run(cy *Cycle) error {
	cfg := cy.Cfg
	cy.Level = cy.Hier.Depth()
	cy.CSR = cy.Hier.Coarsest()

	greedy := initpart.GreedyOptions{K: cfg.K, Restarts: cfg.Restarts, Constraints: cfg.Constraints}
	method := "greedy"
	var parts []int
	var err error
	var streamIters []stream.IterTrace
	if cfg.StreamSeedThreshold > 0 && cy.CSR.NumNodes() >= cfg.StreamSeedThreshold {
		// Huge coarsest graphs (a raised CoarsenTarget or a barely
		// contractible instance) seed via the streaming partitioner: one
		// penalized-greedy pass plus a short restream loop instead of
		// frontier growth per restart. One RNG draw varies the shuffled
		// stream order per cycle while keeping the run deterministic.
		method = "stream"
		sres, serr := stream.PartitionCSRWS(cy.Ctx, cy.WS, cy.CSR, stream.Options{
			K:             cfg.K,
			Constraints:   cfg.Constraints,
			MaxIterations: cfg.StreamIterations,
			Seed:          cy.RNG.Int63(),
			Order:         stream.OrderShuffle,
			Workers:       1, // cycles already fan out; results are Workers-neutral
			Pool:          cfg.Pool,
		})
		if serr == nil {
			parts, streamIters = sres.Parts, sres.Iters
		} else {
			err = serr
		}
	} else if cy.Index%2 == 0 {
		parts, err = initpart.GreedyGrowWS(cy.WS, cy.CSR, greedy, cy.RNG)
	} else {
		method = "random"
		parts, err = initpart.RandomPartitionWS(cy.WS, cy.CSR, cfg.K, cy.RNG)
	}
	if err != nil {
		// The coarsest graph can, in principle, have fewer nodes than K
		// if the caller picked a tiny CoarsenTarget; fall back to the
		// finest graph directly.
		method = "greedy-fallback"
		cy.CSR = cy.Hier.Original
		cy.Hier = &coarsen.Hierarchy{Original: cy.CSR}
		cy.Level = 0
		parts, _ = initpart.GreedyGrowWS(cy.WS, cy.CSR, greedy, cy.RNG)
	}
	cy.Parts = parts
	if ct := cy.trace; ct != nil {
		st := &SeedTrace{Method: method, Nodes: cy.CSR.NumNodes(), Stream: streamIters}
		if method == "greedy" || method == "greedy-fallback" {
			st.Restarts = cfg.Restarts
		}
		ct.Seeding = st
	}
	return nil
}

// uncoarsenStage projects the assignment one level finer, recycling the
// coarser level's buffer, and moves the cycle to the finer level's CSR.
type uncoarsenStage struct{}

func (uncoarsenStage) Phase() Phase { return PhaseUncoarsen }

func (uncoarsenStage) Run(cy *Cycle) error {
	lvl := cy.Level
	fine := cy.Hier.GraphAt(lvl - 1)
	projected := cy.WS.Ints.Cap(fine.NumNodes())[:fine.NumNodes()]
	if err := cy.Hier.Levels[lvl-1].ProjectUpInto(cy.Parts, projected); err != nil {
		cy.WS.Ints.Put(projected)
		return errStopUncoarsen
	}
	cy.WS.Ints.Put(cy.Parts)
	cy.Parts = projected
	cy.Level = lvl - 1
	cy.CSR = fine
	return nil
}

// refineStage refines the current level. Below the batch threshold (or
// under RefineSerial) every pipeline runs concurrently on its own copy of
// the projected partition and the goodness-best outcome wins. At and above
// the threshold (or under RefineBatch) a single data-parallel batch pass
// plus a serial FM polish replaces the pipeline race; a panic inside the
// batch pass is isolated and the level degrades to the serial pipelines.
type refineStage struct{}

func (refineStage) Phase() Phase { return PhaseRefine }

// useBatch decides the level's refinement strategy.
func useBatch(cfg *Config, nodes int) bool {
	switch cfg.Refine {
	case RefineBatch:
		return true
	case RefineSerial:
		return false
	default:
		return nodes >= cfg.BatchThreshold
	}
}

func (refineStage) Run(cy *Cycle) error {
	t := cy.now()
	var win refineWin
	var bt *BatchTrace
	mode := ""
	if useBatch(cy.Cfg, cy.CSR.NumNodes()) {
		var ok bool
		win, bt, ok = batchRefinement(cy)
		if ok {
			mode = "batch"
		} else {
			// The batch pass panicked before touching cy.Parts (it
			// mutates only its own incremental state until it returns);
			// fall back to the full serial pipeline race.
			mode = "batch-degraded"
			bt = &BatchTrace{Degraded: true}
			win = bestRefinement(cy)
		}
	} else {
		win = bestRefinement(cy)
	}
	if ct := cy.trace; ct != nil {
		ct.Refines = append(ct.Refines, RefineTrace{
			Level:           cy.Level,
			Nodes:           cy.CSR.NumNodes(),
			Mode:            mode,
			Pipeline:        win.pipeline,
			FMPasses:        win.fmPasses,
			FMMoves:         win.fmMoves,
			Batch:           bt,
			Cut:             win.extra.cut,
			BandwidthExcess: win.extra.bwExcess,
			ResourceExcess:  win.extra.resExcess,
			Goodness:        win.score,
			WallNS:          cy.since(t),
		})
		ct.RefineNS += cy.since(t)
	}
	return nil
}

// batchApplyPoint is the chaos failpoint at the batch-apply boundary: it
// fires right before a selected batch of moves is applied, the spot where
// a real data race or gain-table corruption would land. An injected panic
// (or error, escalated to a panic) is recovered here and the level
// degrades to the serial pipelines.
const batchApplyPoint = "engine.batch-apply"

// batchRefinement runs pipeline 0 after a batch pass on one partition
// state built from the level's assignment, and writes the result into
// cy.Parts only once both finish. ok is false when the batch pass
// panicked; cy.Parts is then still the projected assignment the caller
// handed in, so the serial fallback starts clean.
func batchRefinement(cy *Cycle) (win refineWin, bt *BatchTrace, ok bool) {
	// The batch path replaces the pipeline race, so it reuses pipeline
	// 0's per-cycle child workspace for all its scratch.
	ws := cy.WS.Child(0)
	defer func() {
		if r := recover(); r != nil {
			win, bt, ok = refineWin{}, nil, false
		}
	}()
	s, win, bt := runPipeline(cy, ws, 0, true)
	if s == nil {
		return refineWin{}, nil, false
	}
	copy(cy.Parts, s.Parts())
	s.Release(ws)
	return win, bt, true
}

// retryStage implements the paper's cyclic re-coarsen policy: stop at the
// first feasible cycle unless MinimizeAfterFeasible, and stop when the
// iteration budget is exhausted. The solver invokes it per completed
// cycle in index order; StopSearch marks where a serial run would have
// stopped (later batch results are overshoot and get discarded).
type retryStage struct{}

func (retryStage) Phase() Phase { return PhaseRetry }

func (retryStage) Run(cy *Cycle) error {
	reason := "retry"
	cont := true
	switch {
	case cy.Feasible && !cy.Cfg.MinimizeAfterFeasible:
		reason, cont = "feasible-stop", false
	case cy.Index >= cy.Cfg.MaxCycles-1:
		reason, cont = "budget-exhausted", false
	case cy.Feasible:
		reason = "minimize"
	}
	cy.StopSearch = !cont
	if ct := cy.trace; ct != nil {
		ct.Retry = &RetryTrace{Feasible: cy.Feasible, Continue: cont, Reason: reason}
	}
	return nil
}

// refinePipeline is one ordering of the local-search stages. Every stage
// moves through the pipeline's one partition state, built over the CSR
// snapshot shared by all pipelines at the level, and draws scratch from
// the pipeline's workspace. A stage returns the k-way FM work it did for
// the trace (zero for the repair stages).
type refinePipeline []func(s *pstate.State, ws *arena.Workspace, passes int) refine.Stats

func stageCut(s *pstate.State, ws *arena.Workspace, passes int) refine.Stats {
	return refine.KWayFM(ws, s, passes)
}

func stageBandwidth(s *pstate.State, ws *arena.Workspace, passes int) refine.Stats {
	refine.RepairBandwidth(ws, s, passes)
	return refine.Stats{}
}

func stageResources(s *pstate.State, _ *arena.Workspace, passes int) refine.Stats {
	refine.RebalanceResources(s, passes)
	return refine.Stats{}
}

// stageVector repairs multi-resource overflow; it only acts at the finest
// level, the one level whose state carries the vector table
// (Config.stateConfig).
func stageVector(s *pstate.State, _ *arena.Workspace, passes int) refine.Stats {
	refine.RebalanceVector(s, passes)
	return refine.Stats{}
}

// pipelines are the candidate stage orderings compared at each level.
var pipelines = []refinePipeline{
	{stageCut, stageResources, stageBandwidth, stageVector},
	{stageResources, stageVector, stageBandwidth, stageCut},
	{stageBandwidth, stageCut, stageResources, stageVector},
}

// refineWin is one refined candidate of a level: the pipeline that
// produced it (-1 after a batch pass) and its score, plus its FM work,
// cut and excesses when tracing.
type refineWin struct {
	pipeline int
	score    float64
	fmPasses int
	fmMoves  int
	extra    evalExtra
}

// runPipeline runs pipelines[pl] on one partition state built from
// cy.Parts with scratch from ws, and returns the refined state and its
// description; the state is nil (and the score +Inf) when it cannot be
// built. With batch set (used with pipeline 0 only), refine.BatchKWay
// runs first and the leading FM stage gets a tight two-pass budget: the
// batch rounds already did the bulk cut work, so FM only mops up the
// local moves batch independence forbade, while the repair stages keep
// their full pass budget. Every
// stage is RNG-free and deterministic. cy.abandon is polled between
// stages: once it fires the remaining stages are skipped (the caller is
// about to discard the whole cycle). cy.Parts is only read.
func runPipeline(cy *Cycle, ws *arena.Workspace, pl int, batch bool) (*pstate.State, refineWin, *BatchTrace) {
	cfg := cy.Cfg
	tracing := cy.trace != nil
	win := refineWin{pipeline: pl, score: math.Inf(1)}
	s, err := pstate.NewWS(ws, cy.CSR, cy.Parts, cfg.stateConfig(cy.Parts))
	if err != nil {
		return nil, win, nil
	}
	var bt *BatchTrace
	fmPasses := cfg.RefinePasses
	if batch {
		opts := refine.BatchOptions{Record: tracing}
		if chaos.Enabled() {
			opts.PreApply = func(round, cands int) {
				if err := chaos.Inject(batchApplyPoint); err != nil {
					// Error-kind injections at a mid-apply boundary cannot
					// be "returned" — the pass has no error path by design
					// — so they escalate to the same isolation as a panic.
					panic(err)
				}
			}
		}
		st := refine.BatchKWay(ws, s, opts)
		if tracing {
			bt = &BatchTrace{
				Rounds:      st.Rounds,
				Moves:       st.Moves,
				RoundSizes:  st.RoundSizes,
				RoundGains:  st.RoundGains,
				RoundCands:  st.RoundCands,
				RoundQuotas: st.RoundQuotas,
			}
		}
		win.pipeline = -1
		fmPasses = 2
	}
	for si, stage := range pipelines[pl] {
		if si > 0 && cy.abandon() {
			break
		}
		passes := cfg.RefinePasses
		if si == 0 {
			passes = fmPasses
		}
		fm := stage(s, ws, passes)
		win.fmPasses += fm.Passes
		win.fmMoves += fm.Moves
	}
	win.score = s.Score()
	if tracing {
		win.extra.cut = s.Cut()
		win.extra.bwExcess, win.extra.resExcess, _ = s.Excess()
	}
	return s, win, bt
}

// bestRefinement runs every pipeline concurrently, each on its own
// partition state built from the projected partition, writes the
// goodness-best outcome back into cy.Parts, and returns the winning
// candidate's description. Each candidate is scored from its own state (a
// pure function of the candidate, so concurrency cannot change the
// values), and the reduction scans candidates in pipeline order with
// strict-improvement selection (ties keep the earlier pipeline) —
// bit-identical to the serial loop.
//
// Pipeline i draws its state and scratch from cy.WS.Child(i), so repeated
// levels and cycles on the same workspace reuse the same per-pipeline
// buffers.
func bestRefinement(cy *Cycle) refineWin {
	cands := make([]struct {
		state *pstate.State
		win   refineWin
	}, len(pipelines))
	// Children must be materialized before the pool tasks fork: Child
	// appends to the parent's child list on first use.
	children := make([]*arena.Workspace, len(pipelines))
	for i := range pipelines {
		children[i] = cy.WS.Child(i)
	}
	cy.Cfg.Pool.Run(len(pipelines), func(i int) {
		cands[i].state, cands[i].win, _ = runPipeline(cy, children[i], i, false)
	})
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].win.score < cands[best].win.score {
			best = i
		}
	}
	if s := cands[best].state; s != nil {
		copy(cy.Parts, s.Parts())
	}
	for i, c := range cands {
		if c.state != nil {
			c.state.Release(children[i])
		}
	}
	return cands[best].win
}
