package engine

import (
	"math"

	"ppnpart/internal/arena"
	"ppnpart/internal/chaos"
	"ppnpart/internal/coarsen"
	"ppnpart/internal/graph"
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
			win = bestRefinement(cy.CSR, cy.Parts, cy.Cfg, cy.WS, cy.abandon, cy.trace != nil)
		}
	} else {
		win = bestRefinement(cy.CSR, cy.Parts, cy.Cfg, cy.WS, cy.abandon, cy.trace != nil)
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

// batchRefinement runs the batch pass followed by one serial
// polish-and-repair pipeline on one partition state built from the
// level's assignment, and writes the result into cy.Parts only once both
// finish. ok is false when the batch pass panicked; cy.Parts is then
// still the projected assignment the caller handed in, so the serial
// fallback starts clean.
func batchRefinement(cy *Cycle) (win refineWin, bt *BatchTrace, ok bool) {
	cfg := cy.Cfg
	// The batch path replaces the pipeline race, so it reuses pipeline
	// 0's per-cycle child workspace for all its scratch.
	ws := cy.WS.Child(0)
	tracing := cy.trace != nil
	defer func() {
		if r := recover(); r != nil {
			win, bt, ok = refineWin{}, nil, false
		}
	}()
	s, err := pstate.NewWS(ws, cy.CSR, cy.Parts, cfg.stateConfig(cy.Parts))
	if err != nil {
		return refineWin{}, nil, false
	}
	opts := refine.BatchOptions{
		Pool:   cfg.Pool,
		Record: tracing,
	}
	if chaos.Enabled() {
		opts.PreApply = func(round, cands int) {
			if err := chaos.Inject(batchApplyPoint); err != nil {
				// Error-kind injections at a mid-apply boundary cannot be
				// "returned" — the pass has no error path by design — so
				// they escalate to the same isolation as a panic.
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
	// Serial FM polish plus the constraint-repair stages, one pipeline.
	// The batch rounds already did the bulk cut work, so the FM stage gets
	// a tight two-pass budget — it only mops up the local moves batch
	// independence forbade — while the repair stages keep their full
	// pass budget.
	var fm *refine.Stats
	var fmStats refine.Stats
	if tracing {
		fm = &fmStats
	}
	polishCfg := *cfg
	polishCfg.RefinePasses = 2
	for si, stage := range pipelines[0] {
		if si > 0 && cy.abandon() {
			break
		}
		if si == 0 {
			stage(s, &polishCfg, ws, fm)
		} else {
			stage(s, cfg, ws, fm)
		}
	}
	win = scoreWin(s, -1, tracing)
	win.fmPasses = fmStats.Passes
	win.fmMoves = fmStats.Moves
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
// the pipeline's workspace. fm, when non-nil, accumulates k-way FM work
// for the trace.
type refinePipeline []func(s *pstate.State, cfg *Config, ws *arena.Workspace, fm *refine.Stats)

func stageCut(s *pstate.State, cfg *Config, _ *arena.Workspace, fm *refine.Stats) {
	st := refine.KWayFM(s, cfg.RefinePasses)
	if fm != nil {
		fm.Passes += st.Passes
		fm.Moves += st.Moves
	}
}

func stageBandwidth(s *pstate.State, cfg *Config, ws *arena.Workspace, _ *refine.Stats) {
	refine.RepairBandwidth(ws, s, cfg.RefinePasses)
}

func stageResources(s *pstate.State, cfg *Config, _ *arena.Workspace, _ *refine.Stats) {
	refine.RebalanceResources(s, cfg.RefinePasses)
}

// stageVector repairs multi-resource overflow; it only acts at the finest
// level, the one level whose state carries the vector table
// (Config.stateConfig).
func stageVector(s *pstate.State, cfg *Config, _ *arena.Workspace, _ *refine.Stats) {
	refine.RebalanceVector(s, cfg.RefinePasses)
}

// pipelines are the candidate stage orderings compared at each level.
var pipelines = []refinePipeline{
	{stageCut, stageResources, stageBandwidth, stageVector},
	{stageResources, stageVector, stageBandwidth, stageCut},
	{stageBandwidth, stageCut, stageResources, stageVector},
}

// refineWin is the winning candidate of one bestRefinement round.
type refineWin struct {
	pipeline int
	score    float64
	feasible bool
	fmPasses int
	fmMoves  int
	extra    evalExtra
}

// scoreWin reads a refined state's score, feasibility and, when tracing,
// its cut and constraint excesses.
func scoreWin(s *pstate.State, pipeline int, tracing bool) refineWin {
	win := refineWin{pipeline: pipeline, score: s.Score(), feasible: s.Feasible()}
	if tracing {
		win.extra.cut = s.Cut()
		win.extra.bwExcess, win.extra.resExcess, _ = s.Excess()
	}
	return win
}

// bestRefinement runs every pipeline concurrently, each on its own
// partition state built from the projected partition, writes the
// goodness-best outcome back into parts, and returns the winning
// candidate's description. Every stage is RNG-free and deterministic,
// each candidate is scored from its own state (a pure function of the
// candidate, so concurrency cannot change the values), and the reduction
// scans candidates in pipeline order with strict-improvement selection
// (ties keep the earlier pipeline) — bit-identical to the serial loop.
//
// Pipeline i draws its state and scratch from ws.Child(i), so repeated
// levels and cycles on the same workspace reuse the same per-pipeline
// buffers. abandon, when non-nil, is polled between stages: once it fires
// the pipeline skips its remaining stages (the caller is about to discard
// the whole cycle). tracing adds cut/excess capture and FM stats to the
// per-candidate result.
func bestRefinement(csr *graph.CSR, parts []int, cfg *Config, ws *arena.Workspace, abandon func() bool, tracing bool) refineWin {
	type scored struct {
		state *pstate.State
		win   refineWin
		fm    refine.Stats
	}
	cands := make([]scored, len(pipelines))
	// Children must be materialized before the pool tasks fork: Child
	// appends to the parent's child list on first use.
	children := make([]*arena.Workspace, len(pipelines))
	for i := range pipelines {
		children[i] = ws.Child(i)
	}
	stCfg := cfg.stateConfig(parts)
	cfg.Pool.Run(len(pipelines), func(i int) {
		pl, pws := pipelines[i], children[i]
		cands[i].win = refineWin{pipeline: i, score: math.Inf(1)}
		s, err := pstate.NewWS(pws, csr, parts, stCfg)
		if err != nil {
			return
		}
		var fm *refine.Stats
		if tracing {
			fm = &cands[i].fm
		}
		for si, stage := range pl {
			if si > 0 && abandon != nil && abandon() {
				break
			}
			stage(s, cfg, pws, fm)
		}
		cands[i].state = s
		cands[i].win = scoreWin(s, i, tracing)
	})
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].win.score < cands[best].win.score {
			best = i
		}
	}
	win := cands[best].win
	win.fmPasses = cands[best].fm.Passes
	win.fmMoves = cands[best].fm.Moves
	if s := cands[best].state; s != nil {
		copy(parts, s.Parts())
	}
	for i := range cands {
		if s := cands[i].state; s != nil {
			s.Release(children[i])
		}
	}
	return win
}
