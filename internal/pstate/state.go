// Package pstate is the shared incremental partition-state engine behind
// the partitioner's hot loops. The cyclic GP search evaluates thousands of
// candidate clusterings; recomputing the edge cut and the K×K bandwidth
// matrix from scratch for every candidate costs O(E + K²) per evaluation.
// A State instead maintains, under single-node moves:
//
//   - the assignment vector,
//   - the running global edge cut,
//   - the K×K pairwise bandwidth matrix,
//   - per-part scalar resource totals and node counts,
//   - optional per-part vector (multi-kind) resource totals,
//   - the total constraint excess (bandwidth + scalar + vector overflow),
//
// with Move(u, to) and Undo() updating everything in O(deg(u) + D), and
// Goodness()/Feasible() answering from the maintained excess counters in
// O(1). The arithmetic mirrors internal/metrics exactly (same formulas,
// same float operation order), so a State evaluation is bit-for-bit
// interchangeable with the from-scratch functions — the differential tests
// and the fuzz target in this package enforce that equivalence.
//
// The package also owns the move arithmetic every refiner and the
// streamer use: a node's sparse connectivity row (Row, gathered once per
// node from a CSR and an assignment) and the bandwidth-excess delta of a
// move over that row (Row.BandwidthDelta). MoveDelta, RowDelta and Move
// are built from them.
//
// The State reads adjacency from a graph.CSR snapshot: contiguous arrays,
// no per-node slice headers, built once per hierarchy level and shared by
// every refinement pass at that level.
package pstate

import (
	"fmt"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// State is an incrementally-maintained evaluation of a k-way partition.
type State struct {
	// C is the CSR adjacency the state reads; it is shared, never mutated.
	C *graph.CSR
	// K is the number of parts.
	K int

	parts []int
	cut   int64
	bw    []int64 // K×K bandwidth matrix, row-major, symmetric, zero diagonal
	res   []int64 // per-part scalar resource totals
	cnt   []int   // per-part node counts

	cons      metrics.Constraints
	rlim      []int64 // per-part scalar resource limit (0 = unbounded)
	hasRes    bool    // any rlim entry active
	bwExcess  int64   // Σ_{i<j} max(0, bw[i][j]-Bmax), 0 when Bmax disabled
	resExcess int64   // Σ_p max(0, res[p]-rlim[p]), 0 when no resource bound

	// Vector (multi-kind) resource extension; empty when inactive.
	vectors   [][]int64 // vectors[u][d] = node u's demand of kind d
	vecRmax   []int64   // per-kind bound, <= 0 disables that kind
	vlim      []int64   // K×D per-(part,kind) bounds, row-major
	vecTotals []int64   // K×D totals, row-major
	vecExcess int64     // Σ_{p,d} max(0, total[p][d]-vlim[p][d])
	dims      int

	// Hyperedge extension; engaged when the CSR carries hyperedges (the
	// finest level only — contracted graphs have none). See hyper.go.
	hyper bool
	hphi  []int32 // H×K pin counts per part, row-major
	hcost []int64 // per-net current connectivity cost
	hcut  int64   // Σ_e hcost[e]

	// Replication overlay; nil/empty until the first Replicate. See
	// hyper.go for the Move-exclusion contract.
	reps  []int // replica part per node, -1 = none
	nreps int

	row Row // scratch: the connectivity row of the node in hand
	log []moveRec
}

type moveRec struct {
	u    graph.Node
	from int  // prior part for moves; replica part for replications
	rep  bool // true when the record is a Replicate, undone by unreplicate
}

// Config selects the constraint set a State maintains excess counters for.
type Config struct {
	// K is the number of parts. Required.
	K int
	// Constraints carries Bmax/Rmax; non-positive values disable a bound,
	// exactly as in metrics.Constraints.
	Constraints metrics.Constraints
	// Vectors optionally attaches multi-kind demands (rows index nodes).
	// Only engaged when VectorConstraints has an active bound and the
	// table length matches the node count.
	Vectors [][]int64
	// VectorConstraints bounds each kind per part.
	VectorConstraints metrics.VectorConstraints
}

// New builds a State for parts over the CSR snapshot c. The assignment is
// copied; the caller's slice is not retained. Cost: O(N + E + K²).
func New(c *graph.CSR, parts []int, cfg Config) (*State, error) {
	if err := validate(c, parts, cfg); err != nil {
		return nil, err
	}
	s := &State{}
	s.init(c, parts, cfg)
	return s, nil
}

// wsCacheKey keys the per-workspace State free list in arena extensions.
type wsCacheKey struct{}

// NewWS is New drawing the State — and therefore its internal matrices,
// assignment copy, and move log — from a free list cached on ws. The GP
// solve path evaluates a State per candidate per level; pooling them
// removes that allocation entirely in steady state. Release returns the
// State to the same workspace when the evaluation is done.
func NewWS(ws *arena.Workspace, c *graph.CSR, parts []int, cfg Config) (*State, error) {
	if err := validate(c, parts, cfg); err != nil {
		return nil, err
	}
	var s *State
	if lst, _ := ws.Ext(wsCacheKey{}).(*[]*State); lst != nil && len(*lst) > 0 {
		s = (*lst)[len(*lst)-1]
		*lst = (*lst)[:len(*lst)-1]
	} else {
		s = &State{}
	}
	s.init(c, parts, cfg)
	return s, nil
}

// Release parks s on ws's free list for reuse by a later NewWS. The
// caller must drop every reference into s (Parts, Row) first.
func (s *State) Release(ws *arena.Workspace) {
	lst, _ := ws.Ext(wsCacheKey{}).(*[]*State)
	if lst == nil {
		lst = new([]*State)
		ws.SetExt(wsCacheKey{}, lst)
	}
	s.C = nil
	s.vectors = nil
	s.vecRmax = nil
	*lst = append(*lst, s)
}

// validate checks the New/NewWS preconditions.
func validate(c *graph.CSR, parts []int, cfg Config) error {
	n := c.NumNodes()
	if len(parts) != n {
		return fmt.Errorf("pstate: assignment length %d != nodes %d", len(parts), n)
	}
	if cfg.K <= 0 {
		return fmt.Errorf("pstate: K = %d must be positive", cfg.K)
	}
	for u, p := range parts {
		if p < 0 || p >= cfg.K {
			return fmt.Errorf("pstate: node %d assigned to part %d outside [0,%d)", u, p, cfg.K)
		}
	}
	return nil
}

// grow64 returns a zeroed int64 slice of length n, reusing s's backing
// array when it is large enough.
func grow64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// init (re)builds the full state in place, reusing any backing arrays a
// recycled State carries. Inputs must already be validated.
func (s *State) init(c *graph.CSR, parts []int, cfg Config) {
	n := c.NumNodes()
	k := cfg.K
	s.C = c
	s.K = k
	s.parts = append(s.parts[:0], parts...)
	s.cut = 0
	s.bw = grow64(s.bw, k*k)
	s.res = grow64(s.res, k)
	if cap(s.cnt) < k {
		s.cnt = make([]int, k)
	} else {
		s.cnt = s.cnt[:k]
		clear(s.cnt)
	}
	s.cons = cfg.Constraints
	s.rlim = grow64(s.rlim, k)
	s.hasRes = false
	for p := 0; p < k; p++ {
		if lim := cfg.Constraints.RmaxFor(p); lim > 0 {
			s.rlim[p] = lim
			s.hasRes = true
		}
	}
	s.row.reset(k)
	s.vectors, s.vecRmax, s.dims = nil, nil, 0
	s.log = s.log[:0]
	s.nreps = 0
	s.reps = s.reps[:0]
	for u := 0; u < n; u++ {
		pu := s.parts[u]
		s.res[pu] += c.NodeW[u]
		s.cnt[pu]++
		adj, wts := c.Row(graph.Node(u))
		for i, v := range adj {
			if graph.Node(u) >= v {
				continue
			}
			pv := s.parts[v]
			if pu != pv {
				s.cut += wts[i]
				s.bw[pu*k+pv] += wts[i]
				s.bw[pv*k+pu] += wts[i]
			}
		}
	}
	if cfg.VectorConstraints.Active() && len(cfg.Vectors) == n && n > 0 {
		s.vectors = cfg.Vectors
		s.vecRmax = cfg.VectorConstraints.Rmax
		s.dims = len(cfg.Vectors[0])
		s.vecTotals = grow64(s.vecTotals, k*s.dims)
		for u, row := range cfg.Vectors {
			base := s.parts[u] * s.dims
			for d, v := range row {
				s.vecTotals[base+d] += v
			}
		}
		s.vlim = grow64(s.vlim, k*s.dims)
		for p := 0; p < k; p++ {
			for d := 0; d < s.dims; d++ {
				s.vlim[p*s.dims+d] = cfg.VectorConstraints.CapFor(p, d)
			}
		}
	}
	s.initHyper(c)
	s.recountExcess()
}

// recountExcess rebuilds the three excess counters from the maintained
// matrices (O(K² + K·D)); used once at construction.
func (s *State) recountExcess() {
	s.bwExcess, s.resExcess, s.vecExcess = 0, 0, 0
	if s.cons.Bmax > 0 {
		for i := 0; i < s.K; i++ {
			for j := i + 1; j < s.K; j++ {
				if v := s.bw[i*s.K+j]; v > s.cons.Bmax {
					s.bwExcess += v - s.cons.Bmax
				}
			}
		}
	}
	if s.hasRes {
		for p, r := range s.res {
			if lim := s.rlim[p]; lim > 0 && r > lim {
				s.resExcess += r - lim
			}
		}
	}
	for p := 0; p < s.K && s.vectors != nil; p++ {
		for d := 0; d < s.dims; d++ {
			if lim := s.vlim[p*s.dims+d]; lim > 0 {
				if v := s.vecTotals[p*s.dims+d]; v > lim {
					s.vecExcess += v - lim
				}
			}
		}
	}
}

// Parts exposes the maintained assignment. The slice is owned by the
// State: read it freely, mutate it only through Move/Undo/SetParts.
func (s *State) Parts() []int { return s.parts }

// Part returns the current part of node u.
func (s *State) Part(u graph.Node) int { return s.parts[u] }

// Cut returns the maintained global edge cut.
func (s *State) Cut() int64 { return s.cut }

// Bandwidth returns the maintained traffic between parts i and j.
func (s *State) Bandwidth(i, j int) int64 { return s.bw[i*s.K+j] }

// Resource returns the maintained scalar resource total of part p.
func (s *State) Resource(p int) int64 { return s.res[p] }

// Count returns the number of nodes currently in part p.
func (s *State) Count(p int) int { return s.cnt[p] }

// Limit returns the scalar resource bound of part p (0: unbounded).
func (s *State) Limit(p int) int64 { return s.rlim[p] }

// Fits reports whether part `to` stays within its scalar resource bound
// after absorbing u.
func (s *State) Fits(u graph.Node, to int) bool {
	lim := s.rlim[to]
	return lim <= 0 || s.res[to]+s.C.NodeW[u] <= lim
}

// Bmax returns the pairwise bandwidth bound (<= 0: unbounded).
func (s *State) Bmax() int64 { return s.cons.Bmax }

// Dims returns the number of vector resource kinds the state maintains;
// 0 when the vector extension is not engaged.
func (s *State) Dims() int { return s.dims }

// Demand returns node u's vector demand row (valid while Dims() > 0).
func (s *State) Demand(u graph.Node) []int64 { return s.vectors[u] }

// VectorTotal returns part p's maintained total of resource kind d.
func (s *State) VectorTotal(p, d int) int64 { return s.vecTotals[p*s.dims+d] }

// VectorLimit returns part p's bound on resource kind d, per-part caps
// included (<= 0: unbounded).
func (s *State) VectorLimit(p, d int) int64 { return s.vlim[p*s.dims+d] }

// Excess returns the maintained total constraint excess split by origin:
// pairwise bandwidth above Bmax, scalar resources above Rmax, and vector
// resources above their per-kind bounds.
func (s *State) Excess() (bandwidth, resource, vector int64) {
	return s.bwExcess, s.resExcess, s.vecExcess
}

// Feasible reports whether every maintained constraint is met — O(1).
func (s *State) Feasible() bool {
	return s.bwExcess == 0 && s.resExcess == 0 && s.vecExcess == 0
}

// penaltyBase is the dominant infeasibility penalty: it exceeds the
// largest possible objective (pairwise cut plus connectivity cost, the
// latter at most HWT·(K−1)). Without hyperedges HWT is zero and the
// expression reduces bit-for-bit to the historical EdgeWT+1.
func (s *State) penaltyBase() float64 {
	return float64(s.C.EdgeWT + s.C.HWT*int64(s.K-1) + 1)
}

// Goodness mirrors metrics.Goodness on the maintained state: the objective
// (cut plus hyperedge connectivity cost) when the scalar constraints hold,
// otherwise a dominant penalty built from the scalar excess. Without
// hyperedges the expression matches metrics.Goodness operation-for-
// operation so results are bit-identical.
func (s *State) Goodness() float64 {
	return s.score(s.cut+s.hcut, s.bwExcess+s.resExcess, 0)
}

// Score extends Goodness with the vector-overflow penalty, matching
// core.Options.score: vector excess is weighted by the same dominant base.
func (s *State) Score() float64 {
	return s.score(s.cut+s.hcut, s.bwExcess+s.resExcess, s.vecExcess)
}

// score is the one goodness formula behind Goodness, Score and
// ReplicaScore: the objective when the scalar excess is zero, otherwise
// the dominant penalty plus the objective, and then the vector excess
// weighted by the same base. Every caller goes through this float
// operation order, which keeps their results bit-identical.
func (s *State) score(obj, excess, vecExcess int64) float64 {
	sc := float64(obj)
	if excess != 0 {
		base := s.penaltyBase()
		sc = base + float64(excess)*base + float64(obj)
	}
	if vecExcess > 0 {
		sc += float64(vecExcess) * s.penaltyBase()
	}
	return sc
}

// Row gathers node u's connectivity row into the State's scratch row and
// returns it. The row is valid until the next Row, MoveDelta, Move, Undo,
// Replicate or ReplicaDelta call.
func (s *State) Row(u graph.Node) *Row {
	s.row.Gather(s.C, s.parts, u)
	return &s.row
}

// MoveDelta computes, without mutating, how the maintained quantities
// would change if u moved to part `to`: the cut delta, the bandwidth-
// excess delta and the scalar-resource-excess delta. O(deg(u)).
func (s *State) MoveDelta(u graph.Node, to int) (cutDelta, bwExcessDelta, resExcessDelta int64) {
	return s.RowDelta(s.Row(u), u, to)
}

// RowDelta is MoveDelta on r, the row s.Row(u) returned with no move in
// between, so that a caller weighing several targets for u gathers once.
func (s *State) RowDelta(r *Row, u graph.Node, to int) (cutDelta, bwExcessDelta, resExcessDelta int64) {
	from := s.parts[u]
	if from == to {
		return 0, 0, 0
	}
	return r.W[from] - r.W[to], r.BandwidthDelta(s.bw, s.cons.Bmax, from, to), s.resDelta(u, from, to)
}

// resDelta is the scalar-resource-excess change of moving u from part
// `from` to `to`.
func (s *State) resDelta(u graph.Node, from, to int) int64 {
	if !s.hasRes {
		return 0
	}
	w := s.C.NodeW[u]
	return over(s.res[from]-w, s.rlim[from]) - over(s.res[from], s.rlim[from]) +
		over(s.res[to]+w, s.rlim[to]) - over(s.res[to], s.rlim[to])
}

// Move reassigns u to part `to`, updating every maintained quantity in
// O(deg(u) + D) and recording the move for Undo. Move is not defined
// while replicas exist — the λ-based hyperedge maintenance assumes one
// copy per node — so it panics then; undo the replication first (the log
// ordering guarantees Undo pops replications before moves).
func (s *State) Move(u graph.Node, to int) {
	if s.nreps > 0 {
		panic("pstate: Move while replicas exist; undo replication first")
	}
	from := s.parts[u]
	if from == to {
		return
	}
	s.log = append(s.log, moveRec{u: u, from: from})
	s.apply(u, from, to)
}

// Undo reverts the most recent Move or Replicate. It reports false when
// the log is empty.
func (s *State) Undo() bool {
	if len(s.log) == 0 {
		return false
	}
	rec := s.log[len(s.log)-1]
	s.log = s.log[:len(s.log)-1]
	if rec.rep {
		s.unreplicate(rec.u, rec.from)
	} else {
		s.apply(rec.u, s.parts[rec.u], rec.from)
	}
	return true
}

// Moves returns the number of undoable moves in the log.
func (s *State) Moves() int { return len(s.log) }

// ResetLog discards the undo log (e.g. after accepting a refinement pass).
func (s *State) ResetLog() { s.log = s.log[:0] }

// apply performs the bookkeeping of moving u from part `from` to `to`.
func (s *State) apply(u graph.Node, from, to int) {
	r := s.Row(u)
	k := s.K
	s.bwExcess += r.BandwidthDelta(s.bw, s.cons.Bmax, from, to)
	for _, p := range r.Parts {
		if p == from || p == to {
			continue
		}
		fp, tp := s.bw[from*k+p]-r.W[p], s.bw[to*k+p]+r.W[p]
		s.bw[from*k+p], s.bw[p*k+from] = fp, fp
		s.bw[to*k+p], s.bw[p*k+to] = tp, tp
	}
	ft := s.bw[from*k+to] - r.W[to] + r.W[from]
	s.bw[from*k+to], s.bw[to*k+from] = ft, ft
	s.cut += r.W[from] - r.W[to]

	w := s.C.NodeW[u]
	s.resExcess += s.resDelta(u, from, to)
	s.res[from] -= w
	s.res[to] += w
	s.cnt[from]--
	s.cnt[to]++

	if s.vectors != nil {
		row := s.vectors[u]
		fb, tb := from*s.dims, to*s.dims
		for d, v := range row {
			if v == 0 {
				continue
			}
			limF, limT := s.vlim[fb+d], s.vlim[tb+d]
			s.vecExcess += over(s.vecTotals[fb+d]-v, limF) - over(s.vecTotals[fb+d], limF) +
				over(s.vecTotals[tb+d]+v, limT) - over(s.vecTotals[tb+d], limT)
			s.vecTotals[fb+d] -= v
			s.vecTotals[tb+d] += v
		}
	}
	if s.hyper {
		s.applyHyperMove(u, from, to)
	}
	s.parts[u] = to
}
