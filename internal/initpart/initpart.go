// Package initpart provides initial partitioning algorithms for the
// coarsest graph of the multilevel hierarchy: the paper's greedy
// resource-bounded graph growing with random restarts (§IV-B), plain
// random partitioning, recursive FM-refined bisection (the METIS-style
// seed), and spectral bisection via Laplacian power iteration (the
// related-work comparator of §II-B).
package initpart

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

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
// The one csr serves growth, repair and scoring of every restart. Every
// restart's assignment, resource totals, frontier tables, and
// repair-and-scoring state are drawn from ws; one frontier serves all
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
	// The heaviest node (lowest id on ties) seeds the first attempt.
	var heaviest graph.Node
	for u, w := range csr.NodeW {
		if w > csr.NodeW[heaviest] {
			heaviest = graph.Node(u)
		}
	}
	// Per-part growth bounds: each part's cap, or, for a part without
	// one, the balanced share plus one heaviest node of slack so the
	// last partition is not starved by rounding.
	lims := ws.Int64s.Get(opts.K)
	for p := range lims {
		if lims[p] = opts.Constraints.RmaxFor(p); lims[p] <= 0 {
			lims[p] = csr.NodeWT/int64(opts.K) + csr.NodeW[heaviest]
		}
	}
	// Scoring through a pstate build costs a single adjacency sweep and is
	// bit-identical to metrics.Goodness.
	f := frontier{
		weight: ws.Int64s.Get(n),
		in:     ws.Bools.Get(n),
		items:  ws.Nodes.Cap(8),
		heap:   ws.Int64s.Cap(512),
		// Packed lazy-heap pops need (weight, id) to fit one int64 key: a
		// node's accumulated frontier weight is bounded by the total edge
		// weight, so both bounds guarantee every key is exact.
		packed: int64(n) <= frontierIDMask && csr.EdgeWT <= frontierIDMask,
	}
	var best []int
	bestScore := 0.0
	for attempt := 0; attempt < opts.Restarts; attempt++ {
		var seed graph.Node
		if attempt == 0 {
			seed = heaviest
		} else {
			seed = graph.Node(rng.Intn(n))
		}
		parts := growOnce(ws, csr, opts.K, lims, seed, rng, &f)
		// One state serves the restart's bandwidth repair and scoring.
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
	ws.Int64s.Put(f.weight)
	ws.Bools.Put(f.in)
	ws.Nodes.Put(f.items)
	ws.Int64s.Put(f.heap)
	return best, nil
}

// growOnce performs a single greedy growth from the given seed. f is a
// drained frontier over n nodes; it is returned drained. lims[p] bounds
// part p's growth.
func growOnce(ws *arena.Workspace, csr *graph.CSR, k int, lims []int64, seed graph.Node, rng *rand.Rand, f *frontier) []int {
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
		if parts[s] != Unassigned {
			return
		}
		parts[s] = p
		res[p] += nodeW[s]
		assigned++
		// Frontier: unassigned neighbors, expanded by strongest connection
		// to the growing part first (keeps FIFO traffic internal).
		push := func(u graph.Node) {
			nbrs, wts := csr.Row(u)
			for i, v := range nbrs {
				if parts[v] == Unassigned {
					f.add(v, wts[i])
				}
			}
		}
		push(s)
		for f.len() > 0 {
			u := f.popMax()
			if parts[u] != Unassigned {
				continue
			}
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
	for p := 1; p < k; p++ {
		// Seed each next partition at the heaviest unassigned node
		// (paper: "we apply the same for the other partitions").
		s := heaviestUnassigned(nodeW, parts)
		if s < 0 {
			break
		}
		grow(p, s)
	}

	// Leftovers: best-fit by free space (paper: "the first partition which
	// has biggest free space for that node").
	if assigned < n {
		order := unassignedByWeightDesc(nodeW, parts)
		for _, u := range order {
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

// heaviestUnassigned returns the heaviest node not yet placed, or -1.
func heaviestUnassigned(nodeW []int64, parts []int) graph.Node {
	best := graph.Node(-1)
	var bw int64 = -1
	for u, w := range nodeW {
		if parts[u] == Unassigned && w > bw {
			best = graph.Node(u)
			bw = w
		}
	}
	return best
}

// unassignedByWeightDesc lists unplaced nodes heaviest-first.
func unassignedByWeightDesc(nodeW []int64, parts []int) []graph.Node {
	var out []graph.Node
	for u := range nodeW {
		if parts[u] == Unassigned {
			out = append(out, graph.Node(u))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		wi, wj := nodeW[out[i]], nodeW[out[j]]
		if wi != wj {
			return wi > wj
		}
		return out[i] < out[j]
	})
	return out
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

// frontierIDMask bounds node ids and accumulated weights on the packed
// lazy-heap fast path: key = weight<<31 | (mask - id) keeps the integer
// order of keys identical to the frontier's (weight desc, id asc) total
// order.
const frontierIDMask = 1<<31 - 1

// frontier is a max-priority frontier keyed by connection weight; repeated
// adds accumulate weight, mirroring "most connected first" growth.
// Membership and accumulated weight are dense per-node tables. Selection
// follows the total order (weight desc, node id asc), so the pop sequence
// is independent of insertion or storage order — the same nodes come out
// as with any other container, deterministically.
//
// Two interchangeable pop engines sit behind that order. The packed fast
// path keeps a lazy max-heap of (weight, id) keys: every add pushes the
// node's new cumulative key, and popMax discards stale entries (weight no
// longer current, or node already popped) until the root is live — the
// live root is exactly the linear scan's argmax, so the engines are
// bit-interchangeable. The heap resets whenever the frontier drains,
// which bounds it by one grow's pushes. Graphs whose ids or weights
// exceed the packed key bounds fall back to scanning the member list.
type frontier struct {
	weight []int64
	in     []bool
	items  []graph.Node // member list (fallback engine only)
	heap   []int64      // packed lazy entries (fast path only)
	size   int          // live members (fast path only)
	packed bool
}

func (f *frontier) add(u graph.Node, w int64) {
	if !f.in[u] {
		f.in[u] = true
		if f.packed {
			f.size++
		} else {
			f.items = append(f.items, u)
		}
	}
	f.weight[u] += w
	if f.packed {
		f.heap = append(f.heap, f.weight[u]<<31|(frontierIDMask-int64(u)))
		// Sift up.
		for i := len(f.heap) - 1; i > 0; {
			p := (i - 1) / 2
			if f.heap[p] >= f.heap[i] {
				break
			}
			f.heap[p], f.heap[i] = f.heap[i], f.heap[p]
			i = p
		}
	}
}

func (f *frontier) len() int {
	if f.packed {
		return f.size
	}
	return len(f.items)
}

// popMax removes and returns the strongest-connected node (ties: lowest
// id, keeping the growth deterministic). A popped node leaves no residue:
// re-adding it later starts accumulating from zero again.
func (f *frontier) popMax() graph.Node {
	if f.packed {
		return f.popMaxHeap()
	}
	best := graph.Node(-1)
	bi := -1
	var bw int64 = -1
	for i, u := range f.items {
		if w := f.weight[u]; w > bw || (w == bw && u < best) {
			best, bw, bi = u, w, i
		}
	}
	last := len(f.items) - 1
	f.items[bi] = f.items[last]
	f.items = f.items[:last]
	f.weight[best] = 0
	f.in[best] = false
	return best
}

// popMaxHeap is popMax's packed lazy-heap engine: pop keys in descending
// order, skipping entries superseded by a later add or an earlier pop.
// A live node's highest (current) key always outranks its stale lower
// keys, so the first live entry popped is the frontier's true argmax.
func (f *frontier) popMaxHeap() graph.Node {
	for {
		key := f.heap[0]
		last := len(f.heap) - 1
		f.heap[0] = f.heap[last]
		f.heap = f.heap[:last]
		// Sift down.
		for i := 0; ; {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && f.heap[c+1] > f.heap[c] {
				c++
			}
			if f.heap[i] >= f.heap[c] {
				break
			}
			f.heap[i], f.heap[c] = f.heap[c], f.heap[i]
			i = c
		}
		u := graph.Node(frontierIDMask - key&frontierIDMask)
		if !f.in[u] || f.weight[u] != key>>31 {
			continue // stale: superseded or already popped
		}
		f.weight[u] = 0
		f.in[u] = false
		f.size--
		if f.size == 0 {
			// Drained: drop the remaining stale entries so reuse across
			// grows and restarts starts from an empty heap.
			f.heap = f.heap[:0]
		}
		return u
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
