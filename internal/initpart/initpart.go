// Package initpart provides initial partitioning algorithms for the
// coarsest graph of the multilevel hierarchy: the paper's greedy
// resource-bounded graph growing with random restarts (§IV-B), plain
// random partitioning, recursive FM-refined bisection (the METIS-style
// seed), and spectral bisection via Laplacian power iteration (the
// related-work comparator of §II-B).
package initpart

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
	"ppnpart/internal/refine"
)

// Unassigned marks a node not yet placed by the greedy grower.
const Unassigned = -1

// GreedyOptions configures GreedyGrowWS.
type GreedyOptions struct {
	// K is the number of partitions. Required.
	K int
	// Restarts repeats the whole process with randomly chosen seeds and
	// keeps the best result (paper default: 10). The first attempt always
	// seeds at the heaviest node, per the paper.
	Restarts int
	// Constraints bound each partition's growth (RmaxFor; a part
	// without a bound grows toward balanced resources instead) and score
	// candidates across restarts.
	Constraints metrics.Constraints
}

func (o GreedyOptions) withDefaults() GreedyOptions {
	if o.Restarts <= 0 {
		o.Restarts = 10
	}
	return o
}

// GreedyGrowWS implements the paper's initial partitioning: start from
// the heaviest node, grow the first partition by absorbing neighbors while
// its resource bound permits, then grow the remaining partitions the same
// way; place leftovers best-fit by free space, force-place if nothing
// fits, then run an FM-based bandwidth repair. The whole procedure is
// repeated Restarts times with random seeds and the goodness-best
// assignment wins.
//
// One heavy-first order of the nodes (weight desc, id asc), sorted once
// per call, serves every restart: the first attempt's seed, each next
// part's seed and the leftover pass. The one csr serves growth, repair
// and scoring of every restart. Every restart's assignment, resource
// totals, and repair-and-scoring state are drawn from ws, as are the
// order and the frontier; one frontier, a refine.GainQueue, serves all
// grows of all restarts (it drains to empty after every grow, so reuse
// needs no clearing). The winning assignment is returned still backed by
// ws memory and is never put back by this call: callers may keep it past
// the workspace's return to the pool, and callers that share the
// workspace (the GP cycle) may Put it back when done.
func GreedyGrowWS(ws *arena.Workspace, csr *graph.CSR, opts GreedyOptions, rng *rand.Rand) ([]int, error) {
	opts = opts.withDefaults()
	n := csr.NumNodes()
	if opts.K <= 0 {
		return nil, fmt.Errorf("initpart: K = %d must be positive", opts.K)
	}
	if n < opts.K {
		return nil, fmt.Errorf("initpart: cannot split %d nodes into %d parts", n, opts.K)
	}
	order := ws.Nodes.Cap(n)[:n]
	for i := range order {
		order[i] = graph.Node(i)
	}
	slices.SortFunc(order, func(a, b graph.Node) int {
		if c := cmp.Compare(csr.NodeW[b], csr.NodeW[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// The heaviest node (lowest id on ties) seeds the first attempt.
	heaviest := order[0]
	// Per-part growth bounds: each part's cap, or, for a part without
	// one, the balanced share plus one heaviest node of slack so the
	// last partition is not starved by rounding.
	lims := ws.Int64s.Get(opts.K)
	for p := range lims {
		if lims[p] = opts.Constraints.RmaxFor(p); lims[p] <= 0 {
			lims[p] = csr.NodeWT/int64(opts.K) + csr.NodeW[heaviest]
		}
	}
	f := refine.NewGainQueue(ws, n)
	var best []int
	bestScore := 0.0
	for attempt := 0; attempt < opts.Restarts; attempt++ {
		var seed graph.Node
		if attempt == 0 {
			seed = heaviest
		} else {
			seed = graph.Node(rng.Intn(n))
		}
		parts := growOnce(ws, csr, opts.K, lims, order, seed, rng, &f)
		// One state serves the restart's bandwidth repair and scoring;
		// its build costs a single adjacency sweep, and its goodness is
		// bit-identical to metrics.Goodness.
		s, err := pstate.NewWS(ws, csr, parts, pstate.Config{K: opts.K, Constraints: opts.Constraints})
		if err != nil {
			return nil, fmt.Errorf("initpart: %v", err)
		}
		refine.RepairBandwidth(ws, s, 4)
		score := s.Goodness()
		copy(parts, s.Parts())
		s.Release(ws)
		if best == nil || score < bestScore {
			if best != nil {
				ws.Ints.Put(best)
			}
			best = parts
			bestScore = score
		} else {
			ws.Ints.Put(parts)
		}
	}
	ws.Int64s.Put(lims)
	ws.Nodes.Put(order)
	f.Release(ws)
	return best, nil
}

// growOnce performs a single greedy growth from the given seed. order
// lists the nodes heavy-first; f is a drained frontier over n nodes,
// keyed by connection to the growing part, and is returned drained.
// lims[p] bounds part p's growth.
func growOnce(ws *arena.Workspace, csr *graph.CSR, k int, lims []int64, order []graph.Node, seed graph.Node, rng *rand.Rand, f *refine.GainQueue) []int {
	n := csr.NumNodes()
	nodeW := csr.NodeW
	parts := ws.Ints.Get(n)
	for i := range parts {
		parts[i] = Unassigned
	}
	res := ws.Int64s.Get(k)
	defer ws.Int64s.Put(res)
	assigned := 0

	// grow fills part p starting from node s via weighted-degree-greedy
	// BFS, stopping at the resource bound.
	grow := func(p int, s graph.Node) {
		parts[s] = p
		res[p] += nodeW[s]
		assigned++
		// Frontier: unassigned neighbors, expanded by strongest connection
		// to the growing part first (keeps FIFO traffic internal).
		push := func(u graph.Node) {
			nbrs, wts := csr.Row(u)
			for i, v := range nbrs {
				if parts[v] == Unassigned {
					f.Add(v, wts[i])
				}
			}
		}
		push(s)
		for f.Len() > 0 {
			u, _ := f.Pop()
			w := nodeW[u]
			if res[p]+w > lims[p] {
				continue // try other frontier nodes; some may be lighter
			}
			parts[u] = p
			res[p] += w
			assigned++
			push(u)
		}
	}

	grow(0, seed)
	// Seed each next partition at the heaviest unassigned node (paper:
	// "we apply the same for the other partitions"). Placed nodes stay
	// placed, so the cursor into order only moves forward, and every
	// node before it is placed.
	next := 0
	for p := 1; p < k; p++ {
		for next < n && parts[order[next]] != Unassigned {
			next++
		}
		if next == n {
			break
		}
		grow(p, order[next])
	}

	// Leftovers, heaviest first: best-fit by free space (paper: "the
	// first partition which has biggest free space for that node").
	if assigned < n {
		for _, u := range order[next:] {
			if parts[u] != Unassigned {
				continue
			}
			w := nodeW[u]
			bestP := -1
			var bestFree int64
			for p := 0; p < k; p++ {
				free := lims[p] - res[p]
				if free >= w && (bestP < 0 || free > bestFree) {
					bestP = p
					bestFree = free
				}
			}
			if bestP >= 0 {
				parts[u] = bestP
				res[bestP] += w
				assigned++
			}
		}
	}
	// Forced placement: biggest free space even if Rmax is violated
	// (paper: "even though this implies violating the Rmax constraint").
	if assigned < n {
		for u := 0; u < n; u++ {
			if parts[u] != Unassigned {
				continue
			}
			bestP := 0
			var bestFree int64 = lims[0] - res[0]
			for p := 1; p < k; p++ {
				if free := lims[p] - res[p]; free > bestFree {
					bestP = p
					bestFree = free
				}
			}
			parts[u] = bestP
			res[bestP] += nodeW[u]
			assigned++
		}
	}
	// Guarantee every part is non-empty: steal the lightest node from the
	// largest part for any empty part (k <= n guarantees feasibility).
	fixEmptyParts(nodeW, parts, k, rng)
	return parts
}

// fixEmptyParts ensures every part id in [0,k) owns at least one node.
func fixEmptyParts(nodeW []int64, parts []int, k int, rng *rand.Rand) {
	sizes := metrics.PartSizes(parts, k)
	for p := 0; p < k; p++ {
		if sizes[p] > 0 {
			continue
		}
		// Donate the lightest node from the most populous part.
		donor := 0
		for q := 1; q < k; q++ {
			if sizes[q] > sizes[donor] {
				donor = q
			}
		}
		best := graph.Node(-1)
		var bw int64
		for u, w := range nodeW {
			if parts[u] == donor {
				if best < 0 || w < bw {
					best = graph.Node(u)
					bw = w
				}
			}
		}
		if best >= 0 {
			parts[best] = p
			sizes[donor]--
			sizes[p]++
		}
	}
}

// RandomPartitionWS assigns every node uniformly at random, then repairs
// empty parts. The simplest seeding; used by the cyclic re-partitioning
// step of the paper's un-coarsening phase ("we go back to coarsening
// phase and then partitioning phase (randomly), cyclically"). The
// assignment is drawn from ws.Ints and never released back to ws, so it
// safely outlives the workspace's return to the pool (the same escape
// pattern as GreedyGrowWS).
func RandomPartitionWS(ws *arena.Workspace, csr *graph.CSR, k int, rng *rand.Rand) ([]int, error) {
	n := csr.NumNodes()
	if k <= 0 {
		return nil, fmt.Errorf("initpart: K = %d must be positive", k)
	}
	if n < k {
		return nil, fmt.Errorf("initpart: cannot split %d nodes into %d parts", n, k)
	}
	parts := ws.Ints.Get(n)
	for i := range parts {
		parts[i] = rng.Intn(k)
	}
	fixEmptyParts(csr.NodeW, parts, k, rng)
	return parts, nil
}

// RecursiveBisect produces a k-way partition of csr by recursive
// FM-refined bisection — the METIS-style initial partitioner. Parts are
// balanced by resources. k need not be a power of two: each split
// allocates part ids proportionally.
func RecursiveBisect(csr *graph.CSR, k int, rng *rand.Rand) ([]int, error) {
	return recursiveKWay(csr, k, rng, growBisection)
}

// bisector splits a subgraph into sides 0 and 1, aiming for targetLeft
// resources on side 0.
type bisector func(sub *graph.CSR, targetLeft int64, rng *rand.Rand) []int

// recursiveKWay is the k-way recursion shared by RecursiveBisect and
// SpectralKWay: bisect splits every induced subgraph, FM cleans up each
// split, and the result is repaired for empty parts and rebalanced.
func recursiveKWay(csr *graph.CSR, k int, rng *rand.Rand, bisect bisector) ([]int, error) {
	n := csr.NumNodes()
	if k <= 0 {
		return nil, fmt.Errorf("initpart: K = %d must be positive", k)
	}
	if n < k {
		return nil, fmt.Errorf("initpart: cannot split %d nodes into %d parts", n, k)
	}
	ws := arena.Get()
	defer arena.Put(ws)
	parts := make([]int, n)
	nodes := make([]graph.Node, n)
	for i := range nodes {
		nodes[i] = graph.Node(i)
	}
	// One local-id table serves every split's InducedSubgraph, which
	// leaves it zeroed.
	local := ws.Int32s.Get(n)
	recursiveSplit(ws, csr, local, nodes, 0, k, parts, rng, bisect)
	ws.Int32s.Put(local)
	fixEmptyParts(csr.NodeW, parts, k, rng)
	rebalanceToIdeal(ws, csr, parts, k)
	return parts, nil
}

// rebalanceToIdeal drives every part under ideal-share-plus-one-node,
// the balance a k-way seeder is expected to deliver.
func rebalanceToIdeal(ws *arena.Workspace, csr *graph.CSR, parts []int, k int) {
	bound := csr.NodeWT/int64(k) + slices.Max(csr.NodeW)
	s, err := pstate.NewWS(ws, csr, parts, pstate.Config{K: k, Constraints: metrics.Constraints{Rmax: bound}})
	if err != nil {
		return
	}
	refine.RebalanceResources(s, 8)
	copy(parts, s.Parts())
	s.Release(ws)
}

// recursiveSplit splits the node set into kLeft+kRight shares and
// recurses; base case assigns the whole set to one part id.
func recursiveSplit(ws *arena.Workspace, csr *graph.CSR, local []int32, nodes []graph.Node, firstPart, k int, parts []int, rng *rand.Rand, bisect bisector) {
	if k == 1 {
		for _, u := range nodes {
			parts[u] = firstPart
		}
		return
	}
	kLeft := k / 2
	kRight := k - kLeft
	sub := csr.InducedSubgraph(nodes, local)
	// Target share of resources proportional to part counts.
	total := sub.NodeWT
	targetLeft := total * int64(kLeft) / int64(k)
	bi := bisect(sub, targetLeft, rng)
	// Refine with FM under a resource bound with slack.
	bound := max(targetLeft, total-targetLeft) + slices.Max(sub.NodeW)
	refine.FMBisectWS(ws, sub, bi, bound, 6)
	var left, right []graph.Node
	for i, u := range nodes {
		if bi[i] == 0 {
			left = append(left, u)
		} else {
			right = append(right, u)
		}
	}
	// Degenerate splits: force at least kLeft nodes left, kRight right.
	for len(left) < kLeft && len(right) > kRight {
		left = append(left, right[len(right)-1])
		right = right[:len(right)-1]
	}
	for len(right) < kRight && len(left) > kLeft {
		right = append(right, left[len(left)-1])
		left = left[:len(left)-1]
	}
	recursiveSplit(ws, csr, local, left, firstPart, kLeft, parts, rng, bisect)
	recursiveSplit(ws, csr, local, right, firstPart+kLeft, kRight, parts, rng, bisect)
}

// growBisection seeds side 0 from a random node and BFS-grows it until the
// resource target is reached; remainder is side 1.
func growBisection(sub *graph.CSR, targetLeft int64, rng *rand.Rand) []int {
	n := sub.NumNodes()
	parts := make([]int, n)
	for i := range parts {
		parts[i] = 1
	}
	if n == 0 {
		return parts
	}
	start := graph.Node(rng.Intn(n))
	order := sub.BFSOrder(start)
	var acc int64
	placed := 0
	for _, u := range order {
		if placed > 0 && acc >= targetLeft {
			break
		}
		parts[u] = 0
		acc += sub.NodeW[u]
		placed++
	}
	// Both sides must be non-empty.
	if placed == n {
		parts[order[n-1]] = 1
	}
	return parts
}
