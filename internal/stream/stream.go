// Package stream is the single-pass streaming partitioner for graphs too
// large for the full multilevel hierarchy. Vertices are assigned in stream
// order by a penalized greedy objective (Battaglino-style, as in the
// HyperPRAW restreaming partitioner): the affinity to each part — the
// total edge weight into neighbors already placed there — minus a convex
// imbalance penalty alpha·((r+w)^gamma − r^gamma) on the part's resource
// load, minus a dominant penalty on any increase of the pairwise
// bandwidth excess over Bmax. Parts whose Rmax budget the vertex would
// break are ineligible (with a least-loaded fallback so every vertex is
// always assigned exactly once). The penalty's powers come from a per-part
// memo keyed by the exact integer load (powMemo): a part sees few distinct
// loads per pass, and a hit returns the bits of the math.Pow call a miss
// makes, so the memo changes no result.
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
	// setting; must be >= 1: the penalty is convex so heavier parts repel
	// marginal load harder).
	Gamma float64
	// Alpha scales the imbalance penalty. Non-positive derives the
	// Battaglino coefficient sqrt(K)·EdgeWT/NodeWT^Gamma from the graph
	// totals, which keeps the penalty commensurate with edge affinities.
	Alpha float64
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
	if o.Gamma != 0 && o.Gamma < 1 {
		return fmt.Errorf("stream: Gamma = %v must be >= 1 (or 0 for the default)", o.Gamma)
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

// Partition streams g into opts.K parts.
func Partition(g *graph.Graph, opts Options) (*Result, error) {
	return PartitionCtx(context.Background(), g, opts)
}

// PartitionCtx is Partition under a context, honored between passes: on
// cancellation the last accepted assignment is returned with
// Result.Stopped set (never an error for cancellation alone).
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

// over is the excess of v above lim (0 when lim disables the bound).
func over(v, lim int64) int64 {
	if lim > 0 && v > lim {
		return v - lim
	}
	return 0
}

// bwExcessDelta is the change of the total pairwise bandwidth excess if a
// vertex with per-part affinity conn (touched = parts with conn > 0)
// moves from part `from` (-1 when unassigned) to part `to`. Mirrors
// pstate.State.MoveDelta's bandwidth term.
func (s *streamer) bwExcessDelta(to, from int, conn []int64, touched []int) int64 {
	if s.cons.Bmax <= 0 || to == from {
		return 0
	}
	k, bmax := s.k, s.cons.Bmax
	var delta int64
	if from < 0 {
		for _, q := range touched {
			if q == to {
				continue
			}
			tq := s.bw[to*k+q]
			delta += over(tq+conn[q], bmax) - over(tq, bmax)
		}
		return delta
	}
	for _, q := range touched {
		if q == from || q == to {
			continue
		}
		fq := s.bw[from*k+q]
		delta += over(fq-conn[q], bmax) - over(fq, bmax)
		tq := s.bw[to*k+q]
		delta += over(tq+conn[q], bmax) - over(tq, bmax)
	}
	ft := s.bw[from*k+to]
	delta += over(ft-conn[to]+conn[from], bmax) - over(ft, bmax)
	return delta
}

// powMemoBits sizes the penalty memo: 1<<powMemoBits slots per part.
const powMemoBits = 8

// powMemo caches math.Pow(float64(x), gamma) for the imbalance penalty,
// direct-mapped per part on the exact integer load x (slot x mod 256 of
// part p's row). A hit returns the stored result of the very call a miss
// makes, so the memo is invisible in every result bit. Zeroed storage is
// already a valid memo: key 0 maps to math.Pow(0, gamma) = +0 for every
// gamma > 0, and validate requires gamma >= 1. It is not safe for
// concurrent use; each restream chunk owns one.
type powMemo struct {
	gamma float64
	keys  []int64   // k << powMemoBits
	vals  []float64 // vals[i] == math.Pow(float64(keys[i]), gamma)
}

// newPowMemo draws a zeroed memo for k parts from ws.
func newPowMemo(ws *arena.Workspace, k int, gamma float64) *powMemo {
	return &powMemo{
		gamma: gamma,
		keys:  ws.Int64s.Get(k << powMemoBits),
		vals:  ws.Floats.Get(k << powMemoBits),
	}
}

// release returns the memo's storage to ws.
func (m *powMemo) release(ws *arena.Workspace) {
	ws.Int64s.Put(m.keys)
	ws.Floats.Put(m.vals)
}

// pow returns math.Pow(float64(x), gamma) for a load x of part p.
func (m *powMemo) pow(p int, x int64) float64 {
	i := p<<powMemoBits | int(x&(1<<powMemoBits-1))
	if m.keys[i] != x {
		m.keys[i] = x
		m.vals[i] = math.Pow(float64(x), m.gamma)
	}
	return m.vals[i]
}

// score rates moving a vertex of weight w from part `from` (-1 when
// unassigned) into part p: affinity minus the convex imbalance penalty
// minus the dominant bandwidth-excess penalty. Higher is better.
func (s *streamer) score(p int, w int64, from int, conn []int64, touched []int, memo *powMemo) float64 {
	load := s.res[p]
	if p == from {
		load -= w
	}
	sc := float64(conn[p])
	if s.alpha > 0 {
		sc -= s.alpha * (memo.pow(p, load+w) - memo.pow(p, load))
	}
	if d := s.bwExcessDelta(p, from, conn, touched); d != 0 {
		sc -= s.bwBase * float64(d)
	}
	return sc
}

// pick returns the part for a vertex of weight w. In a restream pass
// (from >= 0) ties keep the vertex in place; among other parts the lowest
// id wins. On first assignment (from == -1) parts the vertex would push
// over Rmax are ineligible; when every part is full the least-loaded part
// takes the vertex anyway, so the stream always assigns.
func (s *streamer) pick(w int64, from int, conn []int64, touched []int, memo *powMemo) int {
	best, bestScore := from, math.Inf(-1)
	if from >= 0 {
		bestScore = s.score(from, w, from, conn, touched, memo)
	}
	for p := 0; p < s.k; p++ {
		if p == from {
			continue
		}
		if lim := s.cons.RmaxFor(p); lim > 0 && s.res[p]+w > lim {
			continue
		}
		if sc := s.score(p, w, from, conn, touched, memo); sc > bestScore {
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
type chooser func(s *streamer, w int64, from int, conn []int64, touched []int, memo *powMemo) int

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

	ws   *arena.Workspace
	csr  *graph.CSR
	opts Options
	n    int

	parts []int
}

// run executes the initial stream plus the restream loop, placing every
// vertex with choose. All scratch, including the returned Parts, comes
// from ws.
func run(ctx context.Context, ws *arena.Workspace, csr *graph.CSR, opts Options, choose chooser) (*Result, error) {
	opts = opts.withDefaults()
	n := csr.NumNodes()
	k := opts.K
	s := &streamer{
		choose: choose,
		k:      k,
		cons:   opts.Constraints,
		gamma:  opts.Gamma,
		alpha:  opts.Alpha,
		bwBase: float64(csr.EdgeWT + 1),
		ws:     ws,
		csr:    csr,
		opts:   opts,
		n:      n,
	}
	if s.alpha <= 0 {
		s.alpha = deriveAlpha(k, csr.EdgeWT, csr.NodeWT, opts.Gamma)
	}
	s.parts = ws.Ints.Cap(n)[:n]
	s.res = zeroed64(&ws.Int64s, k)
	s.bw = zeroed64(&ws.Int64s, k*k)

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

// refresh reloads the running totals from an accepted state.
func (s *streamer) refresh(st *pstate.State) {
	k := s.k
	for p := 0; p < k; p++ {
		s.res[p] = st.Resource(p)
		for q := 0; q < k; q++ {
			s.bw[p*k+q] = st.Bandwidth(p, q)
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
	conn := zeroed64(&s.ws.Int64s, s.k)
	touched := s.ws.Ints.Cap(s.k)
	memo := newPowMemo(s.ws, s.k, s.gamma)
	k := s.k
	for _, ui := range order {
		u := graph.Node(ui)
		adj, wts := s.csr.Row(u)
		touched = touched[:0]
		for i, v := range adj {
			q := s.parts[v]
			if q < 0 {
				continue
			}
			if conn[q] == 0 {
				touched = append(touched, q)
			}
			conn[q] += wts[i]
		}
		w := s.csr.NodeW[u]
		p := s.choose(s, w, -1, conn, touched, memo)
		s.parts[u] = p
		s.res[p] += w
		for _, q := range touched {
			if q == p {
				continue
			}
			s.bw[p*k+q] += conn[q]
			s.bw[q*k+p] += conn[q]
		}
		for _, q := range touched {
			conn[q] = 0
		}
	}
	memo.release(s.ws)
	s.ws.Int64s.Put(conn)
	s.ws.Ints.Put(touched)
	s.ws.Ints.Put(order)
}

// restreamSweep computes every vertex's next part from the previous
// pass's assignment and totals (all read-only during the sweep) into
// newParts, fanned over contiguous chunks. Returns the number of vertices
// whose choice differs from their current part. Chunking cannot change
// any slot, so the sweep is bit-identical for every worker count.
func (s *streamer) restreamSweep(newParts []int) int {
	workers := s.opts.Workers
	if workers > s.n {
		workers = s.n
	}
	if workers == 0 {
		return 0
	}
	chunk := (s.n + workers - 1) / workers
	tasks := (s.n + chunk - 1) / chunk
	moved := make([]int, tasks)
	// Children must be materialized before the pool tasks fork.
	children := make([]*arena.Workspace, tasks)
	for w := 0; w < tasks; w++ {
		children[w] = s.ws.Child(w)
	}
	s.opts.Pool.Run(tasks, func(w int) {
		lo := w * chunk
		hi := lo + chunk
		if hi > s.n {
			hi = s.n
		}
		cws := children[w]
		conn := zeroed64(&cws.Int64s, s.k)
		touched := cws.Ints.Cap(s.k)
		memo := newPowMemo(cws, s.k, s.gamma)
		chunkMoved := 0
		for ui := lo; ui < hi; ui++ {
			u := graph.Node(ui)
			adj, wts := s.csr.Row(u)
			touched = touched[:0]
			for i, v := range adj {
				q := s.parts[v]
				if conn[q] == 0 {
					touched = append(touched, q)
				}
				conn[q] += wts[i]
			}
			from := s.parts[u]
			p := s.choose(s, s.csr.NodeW[u], from, conn, touched, memo)
			newParts[u] = p
			if p != from {
				chunkMoved++
			}
			for _, q := range touched {
				conn[q] = 0
			}
		}
		moved[w] = chunkMoved
		memo.release(cws)
		cws.Int64s.Put(conn)
		cws.Ints.Put(touched)
	})
	total := 0
	for _, m := range moved {
		total += m
	}
	return total
}

// zeroed64 draws a zero-filled int64 slice of length n from p.
func zeroed64(p *arena.Pool[int64], n int) []int64 {
	s := p.Cap(n)[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
