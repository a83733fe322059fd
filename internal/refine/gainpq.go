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
// state of its own, ordering moves with the GainQueue heap below.
package refine

import (
	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
)

// GainQueue is a max-priority queue of nodes keyed by int64 gain with
// O(log n) update-key: the solver's one indexed gain heap. FMBisectWS
// orders its moves with it, and initpart's greedy grower pops its
// frontier from it (Add accumulates a node's connection to the growing
// part). Fiduccia–Mattheyses used bucket arrays, which require small
// integer gain ranges; process-network edge weights are arbitrary int64
// bandwidths, so a binary heap with a position index gives the same
// amortized behaviour without bounding the gain domain. Pops follow the
// total order (gain desc, node id asc), so the pop sequence does not
// depend on insertion order. A popped node leaves the queue entirely:
// adding to it again starts its key from the delta, not its last key.
type GainQueue struct {
	heap []graph.Node // heap of node ids
	pos  []int        // pos[node] = index in heap, -1 if absent
	gain []int64      // gain[node] = current key
}

// NewGainQueue draws an empty queue over nodes [0,n) from ws; Release
// returns its storage.
func NewGainQueue(ws *arena.Workspace, n int) GainQueue {
	pq := GainQueue{
		heap: ws.Nodes.Cap(n),
		pos:  ws.Ints.Get(n),
		gain: ws.Int64s.Get(n),
	}
	for i := range pq.pos {
		pq.pos[i] = -1
	}
	return pq
}

// Release returns the queue's storage to ws and leaves pq empty.
func (pq *GainQueue) Release(ws *arena.Workspace) {
	ws.Nodes.Put(pq.heap)
	ws.Ints.Put(pq.pos)
	ws.Int64s.Put(pq.gain)
	*pq = GainQueue{}
}

func (pq *GainQueue) Len() int { return len(pq.heap) }

// clear empties the queue for reuse.
func (pq *GainQueue) clear() {
	for _, u := range pq.heap {
		pq.pos[u] = -1
	}
	pq.heap = pq.heap[:0]
}

// less orders the heap: higher gain first, then lower id.
func (pq *GainQueue) less(i, j int) bool {
	gi, gj := pq.gain[pq.heap[i]], pq.gain[pq.heap[j]]
	if gi != gj {
		return gi > gj
	}
	return pq.heap[i] < pq.heap[j]
}

func (pq *GainQueue) swap(i, j int) {
	pq.heap[i], pq.heap[j] = pq.heap[j], pq.heap[i]
	pq.pos[pq.heap[i]] = i
	pq.pos[pq.heap[j]] = j
}

func (pq *GainQueue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !pq.less(i, p) {
			break
		}
		pq.swap(i, p)
		i = p
	}
}

func (pq *GainQueue) down(i int) {
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
func (pq *GainQueue) Push(u graph.Node, gain int64) {
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
func (pq *GainQueue) Update(u graph.Node, gain int64) {
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
func (pq *GainQueue) Adjust(u graph.Node, delta int64) {
	if pq.pos[u] >= 0 {
		pq.Update(u, pq.gain[u]+delta)
	}
}

// Add adds delta to u's key, inserting u with key delta when absent.
func (pq *GainQueue) Add(u graph.Node, delta int64) {
	if pq.pos[u] >= 0 {
		pq.Update(u, pq.gain[u]+delta)
		return
	}
	pq.Push(u, delta)
}

// Pop removes and returns the max-gain node.
func (pq *GainQueue) Pop() (graph.Node, int64) {
	u := pq.heap[0]
	g := pq.gain[u]
	pq.Remove(u)
	return u, g
}

// Remove deletes u from the queue if present.
func (pq *GainQueue) Remove(u graph.Node) {
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
