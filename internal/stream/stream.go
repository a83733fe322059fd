// Package stream is the single-pass streaming partitioner for graphs too
// large for the full multilevel hierarchy. Vertices are assigned in stream
// order by a penalized greedy objective (Battaglino-style, as in the
// HyperPRAW restreaming partitioner): the affinity to each part — the
// total edge weight into neighbors already placed there — minus a convex
// imbalance penalty alpha·((r+w)^gamma − r^gamma) on the part's resource
// load, minus a dominant penalty on any increase of the pairwise
// bandwidth excess over Bmax. Parts whose Rmax budget the vertex would
// break are ineligible (with a least-loaded fallback so every vertex is
// always assigned exactly once). The penalty's powers come from one memo
// shared by all parts and keyed by the exact integer load (powMemo): the
// parts' loads move forward together, so a power computed for one part
// serves the others, and a hit returns the bits of the math.Pow call a
// miss makes, so the memo changes no result. Affinities and the
// bandwidth term come from internal/pstate's connectivity row, gathered
// once per vertex against the streamer's own assignment (unassigned
// neighbours skipped), and its BandwidthDelta over the streamer's running
// matrix. The bandwidth term is skipped outright while no candidate move
// can reach Bmax: the streamer keeps an upper bound on every pairwise
// bandwidth, and a vertex whose affinity added to that bound stays within
// Bmax cannot change the excess.
//
// A restreaming loop then re-feeds the stream with the previous
// assignment as prior: each pass recomputes every vertex's best part as a
// pure function of the previous pass's full assignment and part totals (a
// synchronous sweep, so it parallelizes over contiguous vertex chunks
// writing per-vertex slots — bit-identical for any Workers count), and the
// pass is accepted only when the canonical feasibility-first score,
// maintained through internal/pstate, strictly improves. The loop stops on
// the first rejected or moveless pass or at MaxIterations, which makes the
// accepted score trajectory monotonically non-worsening by construction —
// the property suite in this package pins that, and pins the maintained
// cut/bandwidth totals bit-identical to a from-scratch metrics recompute.
//
// Memory is O(K² + n) beyond the CSR snapshot, pooled on an
// internal/arena workspace: no hierarchy, no per-level copies — O(1)
// amortized per vertex, which is what lets BenchmarkScaleGP reach n=10^6.
package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pool"
	"ppnpart/internal/pstate"
)

// Order selects the vertex stream order.
type Order int

const (
	// OrderNatural streams vertices by ascending id (the arrival order of
	// a PPN compiler emitting processes; the default).
	OrderNatural Order = iota
	// OrderShuffle streams a seeded Fisher-Yates permutation of the ids.
	OrderShuffle
)

// Options configures the streaming partitioner.
type Options struct {
	// K is the number of parts. Required.
	K int
	// Constraints carries Bmax and Rmax; zero values disable a bound.
	// Rmax is a hard cap during assignment (a part the vertex would
	// overflow is ineligible while any eligible part remains); any
	// bandwidth-excess increase over Bmax is penalized dominantly.
	Constraints metrics.Constraints
	// Gamma is the imbalance penalty exponent (default 1.5, the HyperPRAW
	// setting; must be finite and >= 1: the penalty is convex so heavier
	// parts repel marginal load harder). The penalty's scale is the
	// Battaglino coefficient sqrt(K)·EdgeWT/NodeWT^Gamma of the graph
	// totals, which keeps it commensurate with edge affinities.
	Gamma float64
	// MaxIterations caps the restream passes after the initial stream
	// (default 8; negative disables restreaming).
	MaxIterations int
	// Workers fans the restream sweeps out over contiguous vertex chunks
	// (default GOMAXPROCS). Every value produces bit-identical results:
	// a pass is a pure function of the previous pass's assignment.
	Workers int
	// Pool executes the sweep chunks (nil: the shared pool.Default()).
	// The chunk split is fixed by Workers, so the pool width cannot
	// change any result bit either.
	Pool *pool.Pool
	// Seed drives OrderShuffle (default 1); OrderNatural ignores it.
	Seed int64
	// Order selects the stream order (default OrderNatural).
	Order Order
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Gamma == 0 {
		o.Gamma = 1.5
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 8
	}
	if o.MaxIterations < 0 {
		o.MaxIterations = 0
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// validate rejects configurations the streamer cannot honor.
func (o Options) validate() error {
	if o.K <= 0 {
		return fmt.Errorf("stream: K = %d must be positive", o.K)
	}
	if o.Constraints.Bmax < 0 {
		return fmt.Errorf("stream: negative Bmax %d", o.Constraints.Bmax)
	}
	if o.Constraints.Rmax < 0 {
		return fmt.Errorf("stream: negative Rmax %d", o.Constraints.Rmax)
	}
	if o.Gamma != 0 && (math.IsNaN(o.Gamma) || math.IsInf(o.Gamma, 0) || o.Gamma < 1) {
		return fmt.Errorf("stream: Gamma = %v must be finite and >= 1 (or 0 for the default)", o.Gamma)
	}
	if o.Order != OrderNatural && o.Order != OrderShuffle {
		return fmt.Errorf("stream: unknown order %d", o.Order)
	}
	return nil
}

// IterTrace records one streaming pass: the initial stream (Iter 0) and
// every restream pass that ran. Cut, the constraint excesses and Score are
// the pstate-maintained canonical values of the pass's assignment.
type IterTrace struct {
	// Iter is the pass index (0 = initial stream).
	Iter int `json:"iter"`
	// Moves counts vertices whose part changed in this pass (n on the
	// initial stream).
	Moves int `json:"moves"`
	// Cut is the global edge cut after the pass.
	Cut int64 `json:"cut"`
	// BandwidthExcess and ResourceExcess are the total constraint
	// overflows after the pass (the per-pass imbalance record).
	BandwidthExcess int64 `json:"bandwidth_excess"`
	ResourceExcess  int64 `json:"resource_excess"`
	// Score is the feasibility-first goodness (pstate.State.Score).
	Score float64 `json:"score"`
	// Accepted reports whether the pass's assignment was kept. Only the
	// final pass of a run can be rejected; the accepted score trajectory
	// is monotonically non-worsening.
	Accepted bool `json:"accepted"`
}

// Result is a finished streaming run.
type Result struct {
	// Parts is the final accepted assignment.
	Parts []int
	// K echoes the part count.
	K int
	// Feasible and Goodness are the canonical pstate evaluation of Parts
	// (bit-identical to the metrics package's from-scratch functions).
	Feasible bool
	Goodness float64
	// Cut is the global edge cut of Parts.
	Cut int64
	// Iterations counts the accepted restream passes.
	Iterations int
	// Iters is the per-pass trajectory, initial stream first.
	Iters []IterTrace
	// Stopped reports context cancellation between passes; Parts then
	// holds the last accepted assignment.
	Stopped bool
}

// PartitionCtx streams g into opts.K parts under a context, honored
// between passes: on cancellation the last accepted assignment is
// returned with Result.Stopped set (never an error for cancellation
// alone).
func PartitionCtx(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	ws := arena.Get()
	res, err := run(ctx, ws, g.ToCSR(), opts, (*streamer).pick)
	if err == nil {
		res.Parts = append([]int(nil), res.Parts...)
	}
	arena.Put(ws)
	return res, err
}

// PartitionCSRWS streams a prebuilt CSR snapshot, drawing all scratch —
// including Result.Parts — from ws. The caller owns the workspace: the
// returned assignment is only valid until the workspace is recycled. The
// engine's stream-seeding stage uses this form.
func PartitionCSRWS(ctx context.Context, ws *arena.Workspace, csr *graph.CSR, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return run(ctx, ws, csr, opts, (*streamer).pick)
}

// powMemoBits sizes the penalty memo: 1<<powMemoBits slots shared by
// all parts.
const powMemoBits = 16

// powMemo caches math.Pow(float64(x), gamma) for the imbalance penalty,
// direct-mapped on the exact integer load x (slot x mod 1<<powMemoBits).
// The power does not depend on the part, so one table serves them all. A
// hit returns the stored result of the very call a miss makes, so the
// memo is invisible in every result bit. Zeroed storage is already a
// valid memo: key 0 maps to math.Pow(0, gamma) = +0 for every finite
// gamma > 0, and validate requires a finite gamma >= 1. It is not safe
// for concurrent use; each restream chunk owns one.
type powMemo struct {
	gamma float64
	keys  []int64   // 1 << powMemoBits
	vals  []float64 // vals[i] == math.Pow(float64(keys[i]), gamma)
}

// newPowMemo draws a zeroed memo from ws.
func newPowMemo(ws *arena.Workspace, gamma float64) *powMemo {
	return &powMemo{
		gamma: gamma,
		keys:  ws.Int64s.Get(1 << powMemoBits),
		vals:  ws.Floats.Get(1 << powMemoBits),
	}
}

// release returns the memo's storage to ws.
func (m *powMemo) release(ws *arena.Workspace) {
	ws.Int64s.Put(m.keys)
	ws.Floats.Put(m.vals)
}

// pow returns math.Pow(float64(x), gamma) for a part load x.
func (m *powMemo) pow(x int64) float64 {
	i := int(x & (1<<powMemoBits - 1))
	if m.keys[i] != x {
		m.keys[i] = x
		m.vals[i] = math.Pow(float64(x), m.gamma)
	}
	return m.vals[i]
}

// bwLive reports whether moving a vertex with connectivity row r can
// change the total bandwidth excess. It cannot when Bmax is disabled, or
// when the affinity A summed over r keeps bwMax + A <= Bmax: every pair
// total r.BandwidthDelta reads, before or after the move, is at most
// bwMax + A (edge weights are non-negative), so every excess term is 0.
// The sum is checked against the remaining room term by term, which
// cannot overflow.
func (s *streamer) bwLive(r *pstate.Row) bool {
	if s.cons.Bmax <= 0 {
		return false
	}
	room := s.cons.Bmax - s.bwMax
	if room < 0 {
		return true
	}
	for _, q := range r.Parts {
		if r.W[q] > room {
			return true
		}
		room -= r.W[q]
	}
	return false
}

// score rates moving a vertex of weight w and row r from part `from` (-1
// when unassigned) into part p: affinity minus the convex imbalance
// penalty minus the dominant bandwidth-excess penalty. Higher is better.
// live is bwLive for the vertex: when false the excess delta is 0 and
// skipped.
func (s *streamer) score(p int, w int64, from int, r *pstate.Row, memo *powMemo, live bool) float64 {
	load := s.res[p]
	if p == from {
		load -= w
	}
	sc := float64(r.W[p])
	if s.alpha > 0 {
		sc -= s.alpha * (memo.pow(load+w) - memo.pow(load))
	}
	if !live {
		return sc
	}
	if d := r.BandwidthDelta(s.bw, s.cons.Bmax, from, p); d != 0 {
		sc -= s.bwBase * float64(d)
	}
	return sc
}

// pick returns the part for a vertex of weight w. In a restream pass
// (from >= 0) ties keep the vertex in place; among other parts the lowest
// id wins. On first assignment (from == -1) parts the vertex would push
// over Rmax are ineligible; when every part is full the least-loaded part
// takes the vertex anyway, so the stream always assigns.
func (s *streamer) pick(w int64, from int, r *pstate.Row, memo *powMemo) int {
	live := s.bwLive(r)
	best, bestScore := from, math.Inf(-1)
	if from >= 0 {
		bestScore = s.score(from, w, from, r, memo, live)
	}
	for p := 0; p < s.k; p++ {
		if p == from {
			continue
		}
		if lim := s.cons.RmaxFor(p); lim > 0 && s.res[p]+w > lim {
			continue
		}
		if sc := s.score(p, w, from, r, memo, live); sc > bestScore {
			best, bestScore = p, sc
		}
	}
	if best >= 0 {
		return best
	}
	// Every part is over budget for this vertex: least-loaded fallback.
	best = 0
	for p := 1; p < s.k; p++ {
		if s.res[p] < s.res[best] {
			best = p
		}
	}
	return best
}

// deriveAlpha is the Battaglino penalty coefficient sqrt(K)·m/n^gamma,
// lifted to weighted graphs (m -> total edge weight, n -> total node
// weight) so the marginal penalty stays commensurate with affinities.
func deriveAlpha(k int, edgeWT, nodeWT int64, gamma float64) float64 {
	if nodeWT <= 0 {
		return 0
	}
	return math.Sqrt(float64(k)) * float64(edgeWT) / math.Pow(float64(nodeWT), gamma)
}

// chooser picks the part for one vertex: (*streamer).pick, or in the
// package tests the direct-math.Pow reference it must reproduce.
type chooser func(s *streamer, w int64, from int, r *pstate.Row, memo *powMemo) int

// streamer is the streaming state, workspace-pooled. Its methods score
// candidate parts for one vertex against the part totals.
type streamer struct {
	choose chooser
	k      int
	cons   metrics.Constraints
	gamma  float64
	alpha  float64
	bwBase float64 // dominant weight on bandwidth-excess increases
	res    []int64 // per-part resource totals (live view)
	bw     []int64 // k×k bandwidth matrix, row-major (live view)
	bwMax  int64   // upper bound on every entry of bw

	ws   *arena.Workspace
	csr  *graph.CSR
	opts Options
	n    int

	parts []int
	chunk int    // vertices per restream chunk
	slots []slot // one per restream chunk; slot 0 also runs the initial stream
}

// slot is one restream chunk's scratch, kept for the whole run: the
// connectivity row and penalty memo its vertices are scored with, drawn
// from the chunk's own child workspace (chunks run concurrently), and
// the chunk's move count in the current sweep. Gather rewrites the row's
// header for every vertex, so the padding keeps concurrent chunks off
// each other's cache lines.
type slot struct {
	ws    *arena.Workspace
	row   pstate.Row
	memo  *powMemo
	moved int
	_     [64]byte
}

// newStreamer sets up a streamer over csr with defaulted opts: running
// totals, the assignment and one slot per restream chunk, all from ws.
func newStreamer(ws *arena.Workspace, csr *graph.CSR, opts Options, choose chooser) *streamer {
	n, k := csr.NumNodes(), opts.K
	s := &streamer{
		choose: choose,
		k:      k,
		cons:   opts.Constraints,
		gamma:  opts.Gamma,
		alpha:  deriveAlpha(k, csr.EdgeWT, csr.NodeWT, opts.Gamma),
		bwBase: float64(csr.EdgeWT + 1),
		res:    ws.Int64s.Get(k),
		bw:     ws.Int64s.Get(k * k),
		ws:     ws,
		csr:    csr,
		opts:   opts,
		n:      n,
		parts:  ws.Ints.Cap(n)[:n],
	}
	// The chunk split is fixed by Workers and n alone, so every sweep
	// reuses the same slots.
	workers := max(min(opts.Workers, n), 1)
	s.chunk = (n + workers - 1) / workers
	tasks := 1
	if n > 0 {
		tasks = (n + s.chunk - 1) / s.chunk
	}
	s.slots = make([]slot, tasks)
	for w := range s.slots {
		cws := ws.Child(w)
		s.slots[w] = slot{ws: cws, row: pstate.NewRow(cws, k), memo: newPowMemo(cws, opts.Gamma)}
	}
	return s
}

// run executes the initial stream plus the restream loop, placing every
// vertex with choose. All scratch, including the returned Parts, comes
// from ws.
func run(ctx context.Context, ws *arena.Workspace, csr *graph.CSR, opts Options, choose chooser) (*Result, error) {
	opts = opts.withDefaults()
	n, k := csr.NumNodes(), opts.K
	s := newStreamer(ws, csr, opts, choose)
	defer s.releaseSlots()

	res := &Result{K: k}
	s.initialStream()

	// Canonical evaluation of each pass through pstate: Score/Feasible are
	// bit-identical to the metrics package, and the accepted state refills
	// the streamer's running totals, so drift cannot accumulate.
	stCfg := pstate.Config{K: k, Constraints: opts.Constraints}
	st, err := pstate.NewWS(ws, csr, s.parts, stCfg)
	if err != nil {
		return nil, err
	}
	score := st.Score()
	res.Feasible = st.Feasible()
	res.Cut = st.Cut()
	res.Iters = append(res.Iters, s.iterTrace(0, n, true, st))
	s.refresh(st)
	st.Release(ws)

	newParts := ws.Ints.Cap(n)[:n]
	for it := 1; it <= opts.MaxIterations; it++ {
		if ctx.Err() != nil {
			res.Stopped = true
			break
		}
		passMoves := s.restreamSweep(newParts)
		if passMoves == 0 {
			break // converged: no vertex wants to move
		}
		cand, err := pstate.NewWS(ws, csr, newParts, stCfg)
		if err != nil {
			return nil, err
		}
		accepted := cand.Score() < score
		res.Iters = append(res.Iters, s.iterTrace(it, passMoves, accepted, cand))
		if !accepted {
			cand.Release(ws)
			break
		}
		score = cand.Score()
		res.Feasible = cand.Feasible()
		res.Cut = cand.Cut()
		res.Iterations++
		s.parts, newParts = newParts, s.parts
		s.refresh(cand)
		cand.Release(ws)
	}
	ws.Ints.Put(newParts)
	res.Parts = s.parts
	res.Goodness = score
	return res, nil
}

// releaseSlots returns every slot's storage to its workspace.
func (s *streamer) releaseSlots() {
	for w := range s.slots {
		sl := &s.slots[w]
		sl.row.Release(sl.ws)
		sl.memo.release(sl.ws)
	}
}

// iterTrace snapshots one pass's canonical evaluation.
func (s *streamer) iterTrace(iter, moves int, accepted bool, st *pstate.State) IterTrace {
	bwEx, resEx, _ := st.Excess()
	return IterTrace{
		Iter:            iter,
		Moves:           moves,
		Cut:             st.Cut(),
		BandwidthExcess: bwEx,
		ResourceExcess:  resEx,
		Score:           st.Score(),
		Accepted:        accepted,
	}
}

// refresh reloads the running totals, and bwMax, from an accepted state.
func (s *streamer) refresh(st *pstate.State) {
	k := s.k
	s.bwMax = 0
	for p := 0; p < k; p++ {
		s.res[p] = st.Resource(p)
		for q := 0; q < k; q++ {
			b := st.Bandwidth(p, q)
			s.bw[p*k+q] = b
			s.bwMax = max(s.bwMax, b)
		}
	}
}

// initialStream assigns every vertex once, in stream order, updating the
// running totals incrementally. Affinities see only already-assigned
// neighbors — the defining property of a single pass over the stream.
func (s *streamer) initialStream() {
	for i := range s.parts {
		s.parts[i] = -1
	}
	order := s.ws.Ints.Cap(s.n)[:s.n]
	for i := range order {
		order[i] = i
	}
	if s.opts.Order == OrderShuffle {
		rng := rand.New(rand.NewSource(s.opts.Seed))
		rng.Shuffle(s.n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	row, memo := &s.slots[0].row, s.slots[0].memo
	k := s.k
	for _, ui := range order {
		u := graph.Node(ui)
		row.Gather(s.csr, s.parts, u)
		w := s.csr.NodeW[u]
		p := s.choose(s, w, -1, row, memo)
		s.parts[u] = p
		s.res[p] += w
		for _, q := range row.Parts {
			if q == p {
				continue
			}
			s.bw[p*k+q] += row.W[q]
			s.bw[q*k+p] += row.W[q]
			s.bwMax = max(s.bwMax, s.bw[p*k+q])
		}
	}
	s.ws.Ints.Put(order)
}

// restreamSweep computes every vertex's next part from the previous
// pass's assignment and totals (all read-only during the sweep) into
// newParts, fanned over contiguous chunks. Returns the number of vertices
// whose choice differs from their current part. Chunking cannot change
// any slot, so the sweep is bit-identical for every worker count.
func (s *streamer) restreamSweep(newParts []int) int {
	if s.n == 0 {
		return 0
	}
	s.opts.Pool.Run(len(s.slots), func(w int) {
		lo := w * s.chunk
		hi := min(lo+s.chunk, s.n)
		sl := &s.slots[w]
		moved := 0
		for ui := lo; ui < hi; ui++ {
			u := graph.Node(ui)
			sl.row.Gather(s.csr, s.parts, u)
			from := s.parts[u]
			p := s.choose(s, s.csr.NodeW[u], from, &sl.row, sl.memo)
			newParts[u] = p
			if p != from {
				moved++
			}
		}
		sl.moved = moved
	})
	total := 0
	for _, sl := range s.slots {
		total += sl.moved
	}
	return total
}
