// Package coarsen implements the contraction phase of the multilevel
// scheme: given a matching, merge each matched pair into one coarse node
// (weights summed, parallel edges folded with summed weights — §IV-A of
// the paper), maintain the fine→coarse maps, and build full hierarchies.
// It also implements the paper's "best of three" strategy, which runs all
// three matching heuristics at each level and keeps the contraction that
// hides the most edge weight.
package coarsen

import (
	"fmt"
	"math/rand"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
	"ppnpart/internal/pool"
)

// Level is one contraction step: the coarse graph plus the map from fine
// nodes to coarse nodes.
type Level struct {
	// Coarse is the contracted graph.
	Coarse *graph.CSR
	// FineToCoarse maps each fine node to its coarse image.
	FineToCoarse []graph.Node
	// Heuristic records which matching produced this level.
	Heuristic match.Heuristic
	// Candidates records every competing heuristic's matching quality at
	// this level, in heuristic order. Only populated under
	// Options.RecordCandidates (trace support); nil otherwise.
	Candidates []MatchCandidate
}

// MatchCandidate is one heuristic's entry in a level's best-of-three
// comparison: the edge weight its matching hides and the pair count the
// tie-break uses.
type MatchCandidate struct {
	Heuristic     match.Heuristic
	MatchedWeight int64
	Pairs         int
}

// Contract applies a matching to g: every matched pair becomes one coarse
// node with summed weight; unmatched nodes carry over. Edges between
// coarse nodes fold duplicates by summing weights; intra-pair edges
// disappear (their weight is "hidden" inside the coarse node). It
// contracts g's CSR.
func Contract(g *graph.Graph, m match.Matching) (*Level, error) {
	ws := arena.Get()
	defer arena.Put(ws)
	return ContractWS(ws, g.ToCSR(), m)
}

// ContractWS is Contract on a CSR, with its row cursors and fold marker
// drawn from ws. It builds the coarse CSR in three passes and no hash
// table, as a Graph folds its queued edges:
//
//  1. number the coarse nodes, sum their weights, and carve each coarse
//     row's capacity (the sum of its fine degrees) from one backing array;
//  2. for u ascending and each neighbour v > u in a different coarse node,
//     append the halves of {cu, cv} (CSR.PushEdge), duplicates included;
//  3. fold each row in place (CSR.FoldRows).
//
// Within a row, the first raw occurrence of d is where sequential
// Graph.AddEdge calls over the same edges would first meet {c, d}, so the
// rows come out in the same first-encounter order with the same summed
// weights (DESIGN.md §5c). The Level itself (coarse graph, fine→coarse
// map) outlives the call and stays heap-allocated.
func ContractWS(ws *arena.Workspace, g *graph.CSR, m match.Matching) (*Level, error) {
	n := g.NumNodes()
	if len(m) != n {
		return nil, fmt.Errorf("coarsen: matching length %d != nodes %d", len(m), n)
	}
	fineToCoarse := make([]graph.Node, n)
	for i := range fineToCoarse {
		fineToCoarse[i] = -1
	}
	// Assign coarse ids: pairs get one id (at the lower endpoint's visit),
	// singles get their own.
	next := graph.Node(0)
	for u := 0; u < n; u++ {
		if fineToCoarse[u] != -1 {
			continue
		}
		v := m[u]
		if v != match.Unmatched {
			if int(v) < 0 || int(v) >= n || (m[v] != graph.Node(u)) {
				return nil, fmt.Errorf("coarsen: invalid matching at node %d", u)
			}
			fineToCoarse[v] = next
		}
		fineToCoarse[u] = next
		next++
	}
	nc := int(next)
	c := &graph.CSR{XAdj: make([]int32, nc+1), NodeW: make([]int64, nc)}
	// Pass 1. A coarse row holds at most its fine rows' degrees (the
	// intra-pair edge vanishes, duplicates fold).
	for u := 0; u < n; u++ {
		cu := fineToCoarse[u]
		c.NodeW[cu] += g.NodeW[u]
		c.XAdj[cu+1] += int32(g.Degree(graph.Node(u)))
	}
	for cu := 0; cu < nc; cu++ {
		c.NodeWT += c.NodeW[cu]
		c.XAdj[cu+1] += c.XAdj[cu]
	}
	c.Adj = make([]graph.Node, c.XAdj[nc])
	c.AdjW = make([]int64, c.XAdj[nc])
	// Pass 2. fill[cu] is one past row cu's last raw entry.
	fill := append(ws.Int32s.Cap(nc), c.XAdj[:nc]...)
	for u := 0; u < n; u++ {
		cu := fineToCoarse[u]
		nbrs, wts := g.Row(graph.Node(u))
		for i, v := range nbrs {
			if graph.Node(u) >= v {
				continue
			}
			cv := fineToCoarse[v]
			if cu == cv {
				continue // intra-pair edge vanishes
			}
			c.PushEdge(fill, cu, cv, wts[i])
			c.EdgeWT += wts[i]
		}
	}
	// Pass 3.
	mark := ws.Int32s.Get(nc)
	c.FoldRows(fill, mark)
	ws.Int32s.Put(fill)
	ws.Int32s.Put(mark)
	return &Level{Coarse: c, FineToCoarse: fineToCoarse}, nil
}

// ProjectUpInto lifts a partition of the coarse graph to the fine graph,
// writing into fine, of length len(FineToCoarse): each fine node inherits
// the part of its coarse image. This is the projection step of
// un-coarsening; the uncoarsening loop recycles its per-level assignment
// buffers through it.
func (l *Level) ProjectUpInto(coarseParts, fine []int) error {
	if len(coarseParts) != l.Coarse.NumNodes() {
		return fmt.Errorf("coarsen: projection input length %d != coarse nodes %d",
			len(coarseParts), l.Coarse.NumNodes())
	}
	if len(fine) != len(l.FineToCoarse) {
		return fmt.Errorf("coarsen: projection output length %d != fine nodes %d",
			len(fine), len(l.FineToCoarse))
	}
	for u, c := range l.FineToCoarse {
		fine[u] = coarseParts[c]
	}
	return nil
}

const (
	// kmeansClusters is the cluster count for the k-means matching
	// heuristic.
	kmeansClusters = 4
	// minShrink aborts coarsening when a level shrinks the node count by
	// less than this factor (guards against matching starvation on star
	// graphs).
	minShrink = 0.02
)

// Options configures hierarchy construction.
type Options struct {
	// TargetSize stops coarsening once the graph has at most this many
	// nodes (paper default: 100).
	TargetSize int
	// Heuristics restricts which matchings compete at each level; nil
	// means all three (the paper's configuration).
	Heuristics []match.Heuristic
	// Pool executes the per-level heuristic fan-out (nil: the shared
	// pool.Default()). The RNG chain stays one task, so the pool width
	// cannot change any random draw.
	Pool *pool.Pool
	// RecordCandidates stores every heuristic's matching quality on each
	// Level (trace support). Off by default: the per-level slice is the
	// only allocation it adds, and the solve path stays allocation-free
	// with tracing disabled.
	RecordCandidates bool
}

func (o Options) withDefaults() Options {
	if o.TargetSize <= 1 {
		o.TargetSize = 100
	}
	if o.Heuristics == nil {
		o.Heuristics = match.All()
	}
	return o
}

// Hierarchy is a full coarsening stack. Levels[0] contracts the original
// graph; Levels[len-1].Coarse is the coarsest graph.
type Hierarchy struct {
	// Original is the input graph's CSR.
	Original *graph.CSR
	// Levels are the contraction steps, finest first.
	Levels []*Level
}

// Coarsest returns the smallest graph of the hierarchy (the original graph
// if no contraction happened).
func (h *Hierarchy) Coarsest() *graph.CSR {
	if len(h.Levels) == 0 {
		return h.Original
	}
	return h.Levels[len(h.Levels)-1].Coarse
}

// Depth returns the number of contraction levels.
func (h *Hierarchy) Depth() int { return len(h.Levels) }

// GraphAt returns the graph at a given level: 0 is the original,
// Depth() is the coarsest.
func (h *Hierarchy) GraphAt(level int) *graph.CSR {
	if level == 0 {
		return h.Original
	}
	return h.Levels[level-1].Coarse
}

// ProjectTo lifts a partition at fromLevel (Depth() = coarsest, 0 =
// original) up to toLevel <= fromLevel, allocating each finer level's
// assignment.
func (h *Hierarchy) ProjectTo(parts []int, fromLevel, toLevel int) ([]int, error) {
	if fromLevel < toLevel {
		return nil, fmt.Errorf("coarsen: cannot project from level %d to coarser level %d", fromLevel, toLevel)
	}
	cur := parts
	for lvl := fromLevel; lvl > toLevel; lvl-- {
		l := h.Levels[lvl-1]
		fine := make([]int, len(l.FineToCoarse))
		if err := l.ProjectUpInto(cur, fine); err != nil {
			return nil, err
		}
		cur = fine
	}
	return cur, nil
}

// heuristicWS is the workspace heuristic i draws its scratch and its
// matching from: ws itself for an RNG-consuming heuristic, whose chain
// runs as one task while the caller waits, and a persistent child of ws
// for an RNG-free one, which runs as a task of its own.
func heuristicWS(ws *arena.Workspace, i int, h match.Heuristic) *arena.Workspace {
	if h.UsesRNG() {
		return ws
	}
	return ws.Child(i)
}

// bestMatchingWS runs the competing heuristics on g and returns the
// matching that hides the most edge weight (ties: most pairs, then
// heuristic order), with the workspace it was drawn from. This is the
// paper's per-level comparison of the three strategies.
//
// The heuristics run concurrently on the shared worker pool with a
// deterministic split: every RNG-consuming heuristic stays in one task,
// executed in declaration order against the shared stream (so the random
// draws are exactly those of a serial run), while RNG-free heuristics fan
// out as their own tasks. Results are reduced in heuristic order, which
// makes the winner — and therefore the whole hierarchy — bit-identical to
// a serial execution for a fixed seed and any pool width. Each heuristic
// draws from heuristicWS, so repeated levels and cycles reuse the same
// buffers. The losing matchings go back to their workspaces here, once
// the tasks have joined; the caller puts the winner back to the returned
// workspace when it is done with it.
//
// Under opts.RecordCandidates it also returns the per-heuristic quality
// table the trace surfaces. Recording reuses the weights/pairs the
// reduction computes anyway, so it cannot change the winner or any RNG
// draw.
func bestMatchingWS(ws *arena.Workspace, g *graph.CSR, opts Options, rng *rand.Rand) (match.Matching, match.Heuristic, *arena.Workspace, []MatchCandidate) {
	opts = opts.withDefaults()
	results := make([]match.Matching, len(opts.Heuristics))
	var rngChain []int // indexes of RNG-consuming heuristics, in order
	var tasks []func()
	for i, h := range opts.Heuristics {
		if h.UsesRNG() {
			rngChain = append(rngChain, i)
			continue
		}
		// Child must be materialized before the pool tasks fork: it
		// appends to the parent's child list on first use.
		i, h, cws := i, h, heuristicWS(ws, i, h)
		tasks = append(tasks, func() {
			// Unknown heuristics yield a nil matching and are skipped in
			// the reduction; callers validate up front.
			results[i], _ = match.ComputeWS(cws, h, g, kmeansClusters, rng)
		})
	}
	if len(rngChain) > 0 {
		// The whole RNG chain is ONE pool task: its heuristics execute in
		// declaration order against the shared stream, so the random
		// draws are exactly those of a serial run for any pool width.
		tasks = append(tasks, func() {
			for _, i := range rngChain {
				results[i], _ = match.ComputeWS(ws, opts.Heuristics[i], g, kmeansClusters, rng)
			}
		})
	}
	opts.Pool.Run(len(tasks), func(i int) { tasks[i]() })

	best := -1
	var bestW int64 = -1
	bestPairs := -1
	var cands []MatchCandidate
	if opts.RecordCandidates {
		cands = make([]MatchCandidate, 0, len(opts.Heuristics))
	}
	for i, m := range results {
		if m == nil {
			continue
		}
		w := m.MatchedWeight(g)
		p := m.Pairs()
		if opts.RecordCandidates {
			cands = append(cands, MatchCandidate{Heuristic: opts.Heuristics[i], MatchedWeight: w, Pairs: p})
		}
		if w > bestW || (w == bestW && p > bestPairs) {
			best, bestW, bestPairs = i, w, p
		}
	}
	if best < 0 {
		return nil, 0, ws, cands
	}
	for i, m := range results {
		if i != best {
			heuristicWS(ws, i, opts.Heuristics[i]).Nodes.Put(m)
		}
	}
	h := opts.Heuristics[best]
	return results[best], h, heuristicWS(ws, best, h), cands
}

// BuildWS constructs a hierarchy by repeated best-of-three contraction
// until the coarse graph reaches opts.TargetSize nodes or contraction
// stalls. All matching and contraction scratch is drawn from ws; the
// Hierarchy itself outlives the call and is heap-allocated.
func BuildWS(ws *arena.Workspace, g *graph.CSR, opts Options, rng *rand.Rand) (*Hierarchy, error) {
	opts = opts.withDefaults()
	h := &Hierarchy{Original: g}
	cur := g
	for cur.NumNodes() > opts.TargetSize {
		m, heur, mws, cands := bestMatchingWS(ws, cur, opts, rng)
		if m.Pairs() == 0 {
			mws.Nodes.Put(m)
			break // nothing contractible (no edges)
		}
		lvl, err := ContractWS(ws, cur, m)
		mws.Nodes.Put(m)
		if err != nil {
			return nil, err
		}
		lvl.Heuristic = heur
		lvl.Candidates = cands
		shrink := 1 - float64(lvl.Coarse.NumNodes())/float64(cur.NumNodes())
		h.Levels = append(h.Levels, lvl)
		cur = lvl.Coarse
		if shrink < minShrink {
			break
		}
	}
	return h, nil
}
