// Package engine is the staged GP solver: it owns the cyclic
// coarsen → initial-partition → uncoarsen+refine → retry loop that
// internal/core used to drive through ad-hoc closures, the shared-incumbent
// pruning across parallel cycles, and the arena workspace lifetimes. The
// phases are explicit Stage values on a Solver, so tests (and future
// heuristic work) can substitute a single phase without re-implementing
// the loop, and every stage reports into an optional Trace sink that is
// free when disabled.
//
// The solver is a pure search core: option validation, defaulting of the
// public API surface, replication, and result/report assembly stay in
// internal/core, which adapts Config/Outcome to its stable Options/Result
// types. Determinism is contract, not accident — the batch-parallel cycle
// loop, per-cycle RNG streams, and strict-improvement reductions are
// ported operation-for-operation from core, and the golden determinism
// tests pin the exact assignments across the move.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"ppnpart/internal/arena"
	"ppnpart/internal/chaos"
	"ppnpart/internal/coarsen"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pool"
	"ppnpart/internal/pstate"
)

// Config parameterizes a Solver. It mirrors the search-relevant subset of
// core.Options (replication is a core-level extension layered on top of
// the engine's outcome).
type Config struct {
	// K is the number of partitions. Required, validated by the caller.
	K int
	// Constraints carries Bmax and Rmax; zero values disable a bound.
	Constraints metrics.Constraints
	// CoarsenTarget stops coarsening at this many nodes (default 100).
	CoarsenTarget int
	// Restarts is the greedy initial partitioner's restart count
	// (default 10).
	Restarts int
	// MaxCycles bounds the cyclic re-coarsen iterations (default 16).
	MaxCycles int
	// MinimizeAfterFeasible keeps cycling after the first feasible
	// partition to look for a lower cut.
	MinimizeAfterFeasible bool
	// RefinePasses bounds each local-search stage per level (default 8).
	RefinePasses int
	// Refine selects the per-level refinement strategy: RefineAuto
	// (default) uses the data-parallel batch pass on levels with at least
	// BatchThreshold nodes and the serial pipelines below.
	Refine RefineMode
	// BatchThreshold is the level node count at and above which RefineAuto
	// selects the batch pass (default 50000).
	BatchThreshold int
	// StreamSeedThreshold switches the initial-partition stage to the
	// streaming partitioner on coarsest graphs with at least this many
	// nodes (0 = default 200000, reached only when CoarsenTarget is
	// raised into that range; negative disables stream seeding). Greedy
	// growth walks a frontier per restart; at that scale the single
	// penalized-greedy stream plus a few restream passes seeds faster and
	// the uncoarsen/FM pipeline refines it exactly as before.
	StreamSeedThreshold int
	// StreamIterations caps the stream seeder's restream passes
	// (default 4).
	StreamIterations int
	// MatchHeuristics restricts the competing matchings; nil means all
	// three.
	MatchHeuristics []match.Heuristic
	// NLevelCoarsening selects one-edge-per-level coarsening.
	NLevelCoarsening bool
	// Parallelism is the width of the cycle batches that follow an
	// infeasible cycle 0 (default GOMAXPROCS). Cycle 0 runs alone unless
	// MinimizeAfterFeasible, which makes every batch this wide. Any value
	// yields the same partition as a serial run.
	Parallelism int
	// Pool executes every parallel fan-out of the solve — the cycle
	// batches, the pipeline race, the batch gain sweeps, the matching
	// heuristics, and the restream sweeps — so a solve spawns workers
	// once instead of per round/level/pass. Nil uses the process-wide
	// shared pool.Default(); the pool width never changes any result bit
	// (the determinism goldens pin runs across widths 1–16).
	Pool *pool.Pool
	// Seed makes the run reproducible (default 1).
	Seed int64
	// Prune controls shared-incumbent pruning across parallel cycles.
	Prune PruneMode
	// VectorResources/VectorConstraints engage the multi-resource
	// extension (finest level only).
	VectorResources   [][]int64
	VectorConstraints metrics.VectorConstraints
}

// WithDefaults fills unset fields with the solver defaults (shared with
// core.Options.withDefaults so both layers agree on the effective
// configuration).
func (c Config) WithDefaults() Config {
	if c.CoarsenTarget <= 0 {
		c.CoarsenTarget = 100
	}
	if c.Restarts <= 0 {
		c.Restarts = 10
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 16
	}
	if c.RefinePasses <= 0 {
		c.RefinePasses = 8
	}
	if c.BatchThreshold <= 0 {
		c.BatchThreshold = 50000
	}
	if c.StreamSeedThreshold == 0 {
		c.StreamSeedThreshold = 200000
	}
	if c.StreamIterations <= 0 {
		c.StreamIterations = 4
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// vectorActive reports whether the multi-resource extension is engaged.
func (c *Config) vectorActive() bool {
	return len(c.VectorResources) > 0 && c.VectorConstraints.Active()
}

func (c *Config) stateConfig(parts []int) pstate.Config {
	cfg := pstate.Config{K: c.K, Constraints: c.Constraints}
	// The vector table indexes original (finest-level) nodes; on coarse
	// graphs the assignment is shorter and the table does not apply.
	if c.vectorActive() && len(parts) == len(c.VectorResources) {
		cfg.Vectors = c.VectorResources
		cfg.VectorConstraints = c.VectorConstraints
	}
	return cfg
}

// Evaluate scores an assignment and checks every constraint from a single
// incremental state build; bit-identical to composing metrics.Goodness
// with metrics.VectorExcess.
func (c Config) Evaluate(csr *graph.CSR, parts []int) (float64, bool) {
	s, err := pstate.New(csr, parts, c.stateConfig(parts))
	if err != nil {
		return math.Inf(1), false
	}
	return s.Score(), s.Feasible()
}

// evaluateWS is Evaluate with the scoring state pooled on ws.
func (c *Config) evaluateWS(ws *arena.Workspace, csr *graph.CSR, parts []int) (float64, bool) {
	s, err := pstate.NewWS(ws, csr, parts, c.stateConfig(parts))
	if err != nil {
		return math.Inf(1), false
	}
	score, feasible := s.Score(), s.Feasible()
	s.Release(ws)
	return score, feasible
}

// evalExtra carries trace-only evaluation detail.
type evalExtra struct {
	cut, bwExcess, resExcess int64
}

// Phase identifies one stage of the GP cycle.
type Phase int

const (
	// PhaseCoarsen builds the multilevel hierarchy.
	PhaseCoarsen Phase = iota
	// PhaseInitialPartition seeds the coarsest graph.
	PhaseInitialPartition
	// PhaseUncoarsen projects the assignment one level finer.
	PhaseUncoarsen
	// PhaseRefine runs the competing refinement pipelines on one level.
	PhaseRefine
	// PhaseRetry decides whether the cyclic search continues.
	PhaseRetry
	numPhases
)

// String names the phase (used as the trace and metrics label).
func (p Phase) String() string {
	switch p {
	case PhaseCoarsen:
		return "coarsen"
	case PhaseInitialPartition:
		return "initial-partition"
	case PhaseUncoarsen:
		return "uncoarsen"
	case PhaseRefine:
		return "refine"
	case PhaseRetry:
		return "retry"
	default:
		return "phase(?)"
	}
}

// Stage is one pluggable phase of the GP cycle. Implementations mutate
// the Cycle they are handed; the Solver owns sequencing, cancellation,
// pruning and workspace lifetimes around them.
type Stage interface {
	Phase() Phase
	Run(cy *Cycle) error
}

// chaosNames are the engine's failpoint names, precomputed so a disarmed
// hit costs one atomic load and no string concatenation. The chaos
// harness injects panics, delays or errors at the entry of each stage
// ("engine.coarsen", "engine.initial-partition", "engine.uncoarsen",
// "engine.refine", "engine.retry").
var chaosNames = func() [numPhases]string {
	var names [numPhases]string
	for p := Phase(0); p < numPhases; p++ {
		names[p] = "engine." + p.String()
	}
	return names
}()

// runStage executes one stage behind its chaos failpoint. An injected
// panic unwinds through Solve to the serving layer's panic isolation;
// an injected error is surfaced like the stage's own error.
func (s *Solver) runStage(cy *Cycle, p Phase) error {
	if chaos.Enabled() {
		if err := chaos.Inject(chaosNames[p]); err != nil {
			return err
		}
	}
	return s.stages[p].Run(cy)
}

// errStopUncoarsen is returned by the uncoarsen stage when a projection
// fails; the solver stops uncoarsening and scores whatever level the
// cycle reached (matching the legacy closure's break).
var errStopUncoarsen = errors.New("engine: uncoarsening stopped")

// Cycle is the mutable state of one GP cycle, threaded through the
// stages. Stages read the configuration, and advance Hier, Level, CSR and
// Parts.
type Cycle struct {
	// Ctx is the solve context; stages may poll it at natural boundaries.
	Ctx context.Context
	// Cfg is the effective (defaulted) configuration.
	Cfg *Config
	// Index is the cycle number; it seeds the cycle's RNG stream.
	Index int
	// RNG is the cycle's deterministic random stream.
	RNG *rand.Rand
	// WS is the cycle's arena workspace; all scratch comes from it.
	WS *arena.Workspace

	// Hier is the coarsening hierarchy (set by PhaseCoarsen).
	Hier *coarsen.Hierarchy
	// Level is the current hierarchy level (Depth = coarsest, 0 = finest).
	Level int
	// CSR is the current level's graph: the finest CSR Solve built (shared
	// read-only by every cycle) until PhaseInitialPartition moves the
	// cycle to the hierarchy's coarsest level.
	CSR *graph.CSR
	// Parts is the current level's assignment.
	Parts []int

	// Feasible/Goodness score the finished cycle (set by the solver
	// before PhaseRetry runs); StopSearch is PhaseRetry's verdict.
	Feasible   bool
	Goodness   float64
	StopSearch bool

	inc    *incumbent
	trace  *CycleTrace
	timing bool
}

// Trace returns the cycle's trace record, or nil when tracing is off.
// Stages use it to append their own records.
func (cy *Cycle) Trace() *CycleTrace { return cy.trace }

// abandon polls the shared incumbent.
func (cy *Cycle) abandon() bool {
	return cy.inc.shouldAbandon(cy.Cfg, cy.Index)
}

// now reads the clock only when per-stage timing is on.
func (cy *Cycle) now() time.Time {
	if cy.timing {
		return time.Now()
	}
	return time.Time{}
}

// since converts a now() stamp into elapsed ns (zero when timing is off).
func (cy *Cycle) since(t time.Time) int64 {
	if cy.timing {
		return time.Since(t).Nanoseconds()
	}
	return 0
}

// Outcome is the result of a Solve: the reduction over all executed
// cycles.
type Outcome struct {
	// Parts is the best assignment found (never nil: a round-robin
	// fallback covers the nothing-completed case).
	Parts []int
	// Feasible and Goodness score Parts under the configuration.
	Feasible bool
	Goodness float64
	// CyclesRun counts executed cycles (pruned cycles count; overshoot
	// past the serial stopping point does not).
	CyclesRun int
	// BestCycle is the cycle index that produced Parts (-1 for the
	// fallback).
	BestCycle int
	// Stopped reports context cancellation or deadline expiry.
	Stopped bool
}

// Solver runs the staged GP cycle loop. The zero value is not usable;
// construct with New.
type Solver struct {
	cfg    Config
	stages [numPhases]Stage
}

// New builds a Solver with the default stages. cfg is defaulted but not
// validated — callers (core.PartitionCtx) validate first.
func New(cfg Config) *Solver {
	s := &Solver{cfg: cfg.WithDefaults()}
	s.stages[PhaseCoarsen] = coarsenStage{}
	s.stages[PhaseInitialPartition] = initialStage{}
	s.stages[PhaseUncoarsen] = uncoarsenStage{}
	s.stages[PhaseRefine] = refineStage{}
	s.stages[PhaseRetry] = retryStage{}
	return s
}

// Config returns the effective (defaulted) configuration.
func (s *Solver) Config() Config { return s.cfg }

// SetStage replaces the stage for st.Phase(). Tests use it to force
// degenerate phases (e.g. an initial partitioner that always produces
// infeasible seeds, to drive the retry path).
func (s *Solver) SetStage(st Stage) {
	if p := st.Phase(); p >= 0 && p < numPhases {
		s.stages[p] = st
	}
}

// Stage returns the stage installed for phase p, so a replacement stage
// can wrap (and selectively delegate to) the default implementation.
func (s *Solver) Stage(p Phase) Stage {
	if p < 0 || p >= numPhases {
		return nil
	}
	return s.stages[p]
}

// cyclePanic re-raises a batch goroutine's panic on the Solve caller's
// goroutine, preserving the originating cycle and stack.
type cyclePanic struct {
	cycle int
	value any
	stack []byte
}

// String renders the panic for recover()-side diagnostics.
func (p *cyclePanic) String() string {
	return fmt.Sprintf("engine: cycle %d panicked: %v\n%s", p.cycle, p.value, p.stack)
}

// candidate is one cycle's contribution to the reduction.
type candidate struct {
	cycle    int
	parts    []int
	goodness float64
	feasible bool
	pruned   bool
	trace    *CycleTrace
}

// Solve runs the cyclic search on g and reduces the per-cycle results
// deterministically. tr, when non-nil, collects the structured solve
// trace; nil tr makes every trace hook a skipped nil check.
//
// Serial semantics: stop at the first feasible cycle (lowest cycle
// index) unless MinimizeAfterFeasible. Cycle 0 runs alone, so its nested
// fan-outs (the matching race, the pipeline race, the batch gain sweeps)
// own the whole pool, and a feasible cycle 0 ends the solve with no
// speculative sibling. Only after cycle 0 ends infeasible do the cycles
// run in deterministic parallel batches of cfg.Parallelism. Under
// MinimizeAfterFeasible every cycle up to the budget is searched, so
// every batch, the first included, is cfg.Parallelism wide. A batch may
// overshoot the stopping cycle; overshoot results are discarded to keep
// parallel == serial.
func (s *Solver) Solve(ctx context.Context, g *graph.Graph, tr *Trace) *Outcome {
	cfg := &s.cfg
	tr.begin(cfg)
	// The solve's one snapshot of g: every cycle coarsens from it and
	// refines its finest level on it, and every candidate is scored
	// against it. Cycles only read it, so sharing across goroutines is
	// safe.
	fcsr := g.ToCSR()
	inc := newIncumbent()

	better := func(a, b candidate) bool {
		if a.goodness != b.goodness {
			return a.goodness < b.goodness
		}
		return a.cycle < b.cycle
	}

	var best candidate
	best.cycle = -1
	cyclesRun := 0
	for base, batch := 0, 0; base < cfg.MaxCycles && ctx.Err() == nil; base += batch {
		batch = cfg.Parallelism
		if base == 0 && !cfg.MinimizeAfterFeasible {
			batch = 1
		}
		if base+batch > cfg.MaxCycles {
			batch = cfg.MaxCycles - base
		}
		results := make([]candidate, batch)
		panics := make([]*cyclePanic, batch)
		cfg.Pool.Run(batch, func(i int) {
			// A panic on a pool task would surface as a *pool.TaskPanic
			// on the Solve goroutine after the whole batch drains;
			// capture it here instead so the serving layer's panic
			// isolation keeps seeing the original cyclePanic (lowest
			// cycle index first, value and stack preserved).
			defer func() {
				if r := recover(); r != nil {
					panics[i] = &cyclePanic{cycle: base + i, value: r, stack: debug.Stack()}
				}
			}()
			results[i] = s.runCycle(ctx, fcsr, base+i, inc, tr)
		})
		for _, cp := range panics {
			if cp != nil {
				panic(cp)
			}
		}
		// The retry phase decides, in cycle order, where a serial run
		// would have stopped; every result past that point is overshoot.
		stopAt := -1
		for _, c := range results {
			if c.parts == nil {
				continue
			}
			rc := &Cycle{Ctx: ctx, Cfg: cfg, Index: c.cycle,
				Feasible: c.feasible, Goodness: c.goodness, trace: c.trace}
			s.runStage(rc, PhaseRetry)
			if rc.StopSearch {
				stopAt = c.cycle
				break
			}
		}
		for _, c := range results {
			if stopAt >= 0 && c.cycle > stopAt {
				// A serial run would never have executed this cycle.
				if c.trace != nil {
					c.trace.Discarded = true
				}
				tr.commit(c.trace)
				continue
			}
			tr.commit(c.trace)
			if c.parts == nil {
				// Cancelled mid-cycle produced nothing; a pruned cycle
				// would have completed (with a result the reduction
				// discards), so it still counts as executed.
				if c.pruned {
					cyclesRun++
				}
				continue
			}
			cyclesRun++
			if best.cycle < 0 || better(c, best) {
				best = c
			}
		}
		if stopAt >= 0 {
			break
		}
	}
	stopped := ctx.Err() != nil

	if best.parts == nil {
		// Nothing completed before cancellation: fall back to a trivial
		// round-robin assignment so callers always get a full-length
		// partition and an honest violation report.
		parts := make([]int, g.NumNodes())
		for i := range parts {
			parts[i] = i % cfg.K
		}
		best.parts = parts
		best.goodness, best.feasible = s.cfg.Evaluate(fcsr, parts)
	}

	out := &Outcome{
		Parts:     best.parts,
		Feasible:  best.feasible,
		Goodness:  best.goodness,
		CyclesRun: cyclesRun,
		BestCycle: best.cycle,
		Stopped:   stopped,
	}
	tr.finish(out)
	return out
}

// runCycle executes one cycle on its own RNG stream and workspace and
// scores the produced assignment against the finest-level CSR.
func (s *Solver) runCycle(ctx context.Context, fcsr *graph.CSR, cycle int, inc *incumbent, tr *Trace) candidate {
	// Each cycle gets an independent deterministic stream and a pooled
	// workspace for all its scratch.
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(cycle)*0x9E3779B9))
	ws := arena.Get()
	// A panicking cycle abandons its workspace instead of returning it:
	// the arena must never pool scratch left in an unknown state.
	completed := false
	defer func() {
		if completed {
			arena.Put(ws)
		}
	}()
	cy := &Cycle{
		Ctx:   ctx,
		Cfg:   &s.cfg,
		CSR:   fcsr,
		Index: cycle,
		RNG:   rng,
		WS:    ws,
		inc:   inc,
	}
	if tr != nil {
		cy.trace = &CycleTrace{Cycle: cycle}
		cy.timing = !tr.OmitTiming
	}
	wallStart := cy.now()
	parts, pruned := s.gpCycle(cy)
	completed = true
	if cy.trace != nil {
		cy.trace.WallNS = cy.since(wallStart)
	}
	if parts == nil {
		// Cancelled or pruned before the cycle produced a full
		// assignment.
		return candidate{cycle: cycle, goodness: math.Inf(1), pruned: pruned, trace: cy.trace}
	}
	goodness, feasible := s.cfg.evaluateWS(ws, fcsr, parts)
	if feasible {
		inc.publish(cycle, goodness)
	}
	if cy.trace != nil {
		cy.trace.Feasible = feasible
		cy.trace.Goodness = goodness
	}
	return candidate{
		cycle:    cycle,
		parts:    parts,
		goodness: goodness,
		feasible: feasible,
		trace:    cy.trace,
	}
}

// gpCycle drives the stages through one full coarsen → seed →
// uncoarsen+refine cycle and returns the finest-level assignment it
// produced. Cancellation is honored at phase and level boundaries: a
// cancelled cycle projects its current clustering straight to the finest
// graph (skipping refinement) so the caller still receives a usable
// assignment, or nil when not even the seeding finished. A (nil, true)
// return means the cycle abandoned itself against the shared incumbent
// (its result was provably going to be discarded).
func (s *Solver) gpCycle(cy *Cycle) (result []int, pruned bool) {
	if cy.Ctx.Err() != nil {
		cy.markCancelled()
		return nil, false
	}
	t := cy.now()
	s.runStage(cy, PhaseCoarsen)
	if cy.trace != nil {
		cy.trace.CoarsenNS = cy.since(t)
	}
	if cy.abandon() {
		cy.markPruned(PhaseCoarsen)
		return nil, true
	}

	t = cy.now()
	s.runStage(cy, PhaseInitialPartition)
	if cy.trace != nil {
		cy.trace.SeedNS = cy.since(t)
	}
	if cy.Ctx.Err() != nil {
		cy.markCancelled()
		full, perr := cy.Hier.ProjectTo(cy.Parts, cy.Level, 0)
		if perr != nil {
			return nil, false
		}
		return full, false
	}
	s.runStage(cy, PhaseRefine)

	// Uncoarsen with goodness-ranked intermediate clusterings: at each
	// level, competing refinement pipelines produce different candidate
	// clusterings; the goodness-best is chosen to continue (§IV: "we
	// generate different intermediate clusterings, that are compared a
	// posteriori using a goodness function; the best is chosen").
	for cy.Level > 0 {
		if cy.abandon() {
			cy.markPruned(PhaseUncoarsen)
			return nil, true
		}
		if err := s.runStage(cy, PhaseUncoarsen); err != nil {
			break
		}
		if cy.Ctx.Err() != nil {
			// Deadline hit mid-uncoarsening: project the current level's
			// assignment to the finest graph without further refinement.
			cy.markCancelled()
			full, perr := cy.Hier.ProjectTo(cy.Parts, cy.Level, 0)
			if perr != nil {
				return nil, false
			}
			return full, false
		}
		s.runStage(cy, PhaseRefine)
	}
	return cy.Parts, false
}

func (cy *Cycle) markCancelled() {
	if cy.trace != nil {
		cy.trace.Cancelled = true
	}
}

func (cy *Cycle) markPruned(at Phase) {
	if cy.trace != nil {
		cy.trace.Pruned = true
		cy.trace.PrunedAt = at.String()
	}
}
