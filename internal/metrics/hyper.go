package metrics

import "ppnpart/internal/graph"

// Hypergraph + replication reference recomputes. These are the slow,
// obviously-correct from-scratch evaluations the incremental partition
// state (internal/pstate) is verified against differentially. A node's
// "copies" are its home partition plus, when replicas[u] >= 0, one replica
// partition; replicas == nil means no node is replicated.

// HyperCut returns the connectivity-1 cost of the hyperedges: each net
// pays its weight once per partition its pins span beyond the first
// (w·(λ−1)), modeling one producer stream forwarded once to every remote
// partition instead of once per reader. Graphs without hyperedges cost 0.
func HyperCut(g *graph.Graph, parts []int) int64 {
	return ReplicatedHyperCut(g, parts, nil)
}

// ReplicatedHyperCut generalizes HyperCut to replicated nodes: a net's
// cost is its weight times the number of partitions that need the stream
// (any partition holding a copy of a reader) but hold no copy of the
// writer. With replicas == nil this is exactly w·(λ−1) per net.
func ReplicatedHyperCut(g *graph.Graph, parts []int, replicas []int) int64 {
	var cost int64
	seen := make(map[int]bool, 8)
	c := g.ToCSR()
	for e := 0; e < c.NumHyperEdges(); e++ {
		pins := c.HyperPins(int32(e))
		src := pins[0]
		clear(seen)
		for _, r := range pins[1:] {
			seen[parts[r]] = true
			if replicas != nil && replicas[r] >= 0 {
				seen[replicas[r]] = true
			}
		}
		need := int64(len(seen))
		if seen[parts[src]] {
			need--
		}
		if replicas != nil && replicas[src] >= 0 && replicas[src] != parts[src] && seen[replicas[src]] {
			need--
		}
		cost += c.HW[e] * need
	}
	return cost
}

// ReplicatedEdgeCut returns the pairwise edge cut under replication: an
// edge {u,v} is cut only when no partition holds copies of both endpoints
// — cloning a producer next to its consumer deletes the cut edge.
func ReplicatedEdgeCut(g *graph.Graph, parts []int, replicas []int) int64 {
	if replicas == nil {
		return EdgeCut(g, parts)
	}
	var cut int64
	c := g.ToCSR()
	for u := 0; u < c.NumNodes(); u++ {
		nbrs, wts := c.Row(graph.Node(u))
		for i, v := range nbrs {
			if graph.Node(u) >= v || copiesIntersect(parts[u], replicas[u], parts[v], replicas[v]) {
				continue
			}
			cut += wts[i]
		}
	}
	return cut
}

// copiesIntersect reports whether {pu, ru} ∩ {pv, rv} is non-empty,
// ignoring the -1 "no replica" sentinel.
func copiesIntersect(pu, ru, pv, rv int) bool {
	if pu == pv || pu == rv {
		return true
	}
	if ru >= 0 && (ru == pv || ru == rv) {
		return true
	}
	return false
}

// ReplicatedPartResources sums each partition's node weight including
// replica copies: a replicated node consumes its weight in both its home
// partition and its replica partition.
func ReplicatedPartResources(g *graph.Graph, parts []int, replicas []int, k int) []int64 {
	r := PartResources(g, parts, k)
	for u, rp := range replicas {
		if rp >= 0 {
			r[rp] += g.NodeWeight(graph.Node(u))
		}
	}
	return r
}

// ReplicatedPartVectors sums each partition's per-kind resource vector
// including replica copies.
func ReplicatedPartVectors(vectors [][]int64, parts []int, replicas []int, k int) [][]int64 {
	out := PartResourceVectors(vectors, parts, k)
	for u, rp := range replicas {
		if rp >= 0 {
			pr := out[rp]
			for kind, v := range vectors[u] {
				pr[kind] += v
			}
		}
	}
	return out
}

// HyperPenaltyBase returns the goodness penalty base for a graph with
// hyperedges active: it must exceed the largest possible objective
// (pairwise cut + connectivity-1 cost, the latter at most HWT·(K−1)), so
// any infeasible candidate still ranks strictly worse than any feasible
// one. Without hyperedges it reduces exactly to TotalEdgeWeight+1.
func HyperPenaltyBase(g *graph.Graph, k int) float64 {
	return float64(g.TotalEdgeWeight() + g.TotalHyperWeight()*int64(k-1) + 1)
}
