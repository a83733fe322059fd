// Package refine implements the local-search refinement algorithms of the
// multilevel scheme: the Fiduccia–Mattheyses (FM) pass for bisections, a
// greedy k-way FM variant, the batch data-parallel k-way pass, the
// bandwidth-repair pass that drives pairwise traffic under Bmax, the
// resource and vector rebalancing passes that drive per-part totals under
// their caps, and logic replication. Every pass moves nodes through one
// pstate.State and reads gains off the state's connectivity row
// (pstate.Row), the package's single move arithmetic; KWayFM and
// BatchKWay pick destinations with one rule, bestGain. The k-way stages
// (KWayFM, BatchKWay, RepairBandwidth, RebalanceResources,
// RebalanceVector) run on the caller's state and report what they
// changed; FMBisectWS refines an assignment vector in place on a K=2
// state of its own, ordering moves with the gainPQ heap below.
package refine

import "ppnpart/internal/graph"

// gainPQ is a max-priority queue of nodes keyed by int64 gain with
// O(log n) update-key, used by the FM passes. Fiduccia–Mattheyses used
// bucket arrays, which require small integer gain ranges; process-network
// edge weights are arbitrary int64 bandwidths, so a binary heap with a
// position index gives the same amortized behaviour without bounding the
// gain domain. Ties break toward the lower node id for determinism.
type gainPQ struct {
	heap []graph.Node // heap of node ids
	pos  []int        // pos[node] = index in heap, -1 if absent
	gain []int64      // gain[node] = current key
}

func newGainPQ(n int) *gainPQ {
	pq := &gainPQ{
		heap: make([]graph.Node, 0, n),
		pos:  make([]int, n),
		gain: make([]int64, n),
	}
	for i := range pq.pos {
		pq.pos[i] = -1
	}
	return pq
}

func (pq *gainPQ) Len() int { return len(pq.heap) }

// clear empties the queue for reuse.
func (pq *gainPQ) clear() {
	for _, u := range pq.heap {
		pq.pos[u] = -1
	}
	pq.heap = pq.heap[:0]
}

// less orders the heap: higher gain first, then lower id.
func (pq *gainPQ) less(i, j int) bool {
	gi, gj := pq.gain[pq.heap[i]], pq.gain[pq.heap[j]]
	if gi != gj {
		return gi > gj
	}
	return pq.heap[i] < pq.heap[j]
}

func (pq *gainPQ) swap(i, j int) {
	pq.heap[i], pq.heap[j] = pq.heap[j], pq.heap[i]
	pq.pos[pq.heap[i]] = i
	pq.pos[pq.heap[j]] = j
}

func (pq *gainPQ) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !pq.less(i, p) {
			break
		}
		pq.swap(i, p)
		i = p
	}
}

func (pq *gainPQ) down(i int) {
	n := len(pq.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && pq.less(l, best) {
			best = l
		}
		if r < n && pq.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		pq.swap(i, best)
		i = best
	}
}

// Push inserts u with the given gain; if u is present its key is updated.
func (pq *gainPQ) Push(u graph.Node, gain int64) {
	if pq.pos[u] >= 0 {
		pq.Update(u, gain)
		return
	}
	pq.gain[u] = gain
	pq.pos[u] = len(pq.heap)
	pq.heap = append(pq.heap, u)
	pq.up(pq.pos[u])
}

// Update changes u's key.
func (pq *gainPQ) Update(u graph.Node, gain int64) {
	i := pq.pos[u]
	if i < 0 {
		pq.Push(u, gain)
		return
	}
	old := pq.gain[u]
	pq.gain[u] = gain
	if gain > old {
		pq.up(i)
	} else if gain < old {
		pq.down(i)
	}
}

// Adjust adds delta to u's key if present.
func (pq *gainPQ) Adjust(u graph.Node, delta int64) {
	if pq.pos[u] >= 0 {
		pq.Update(u, pq.gain[u]+delta)
	}
}

// Pop removes and returns the max-gain node.
func (pq *gainPQ) Pop() (graph.Node, int64) {
	u := pq.heap[0]
	g := pq.gain[u]
	pq.Remove(u)
	return u, g
}

// Remove deletes u from the queue if present.
func (pq *gainPQ) Remove(u graph.Node) {
	i := pq.pos[u]
	if i < 0 {
		return
	}
	last := len(pq.heap) - 1
	if i != last {
		pq.swap(i, last)
	}
	pq.heap = pq.heap[:last]
	pq.pos[u] = -1
	if i <= last-1 && i < len(pq.heap) {
		pq.down(i)
		pq.up(i)
	}
}
