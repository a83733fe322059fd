package graph

import "fmt"

// ConnectedComponents returns, for each node, the id of its component
// (components are numbered 0..k-1 in order of their lowest node), and the
// number of components. The partitioners require connectivity only for
// quality, not correctness, but the generators use this to guarantee
// connected instances.
func (g *Graph) ConnectedComponents() ([]int, int) {
	c := g.ToCSR()
	n := c.NumNodes()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	stack := make([]Node, 0, 64)
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = next
		stack = append(stack[:0], Node(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nbrs, _ := c.Row(u)
			for _, v := range nbrs {
				if comp[v] == -1 {
					comp[v] = next
					stack = append(stack, v)
				}
			}
		}
		next++
	}
	return comp, next
}

// IsConnected reports whether the graph has exactly one connected component
// (the empty graph is considered connected).
func (g *Graph) IsConnected() bool {
	if g.NumNodes() == 0 {
		return true
	}
	_, k := g.ConnectedComponents()
	return k == 1
}

// Quotient collapses the graph according to a block assignment: all nodes
// with the same block id become one coarse node whose weight is the sum of
// its members; edges between blocks fold together with summed weights;
// intra-block edges vanish. blocks[u] must be a dense id in [0, k).
// This is both the contraction primitive of the multilevel scheme and the
// "partition graph" whose edges are the pairwise bandwidths.
func (g *Graph) Quotient(blocks []int, k int) (*Graph, error) {
	if len(blocks) != g.NumNodes() {
		return nil, fmt.Errorf("graph: quotient blocks length %d != nodes %d", len(blocks), g.NumNodes())
	}
	w := make([]int64, k)
	for u, b := range blocks {
		if b < 0 || b >= k {
			return nil, fmt.Errorf("graph: block id %d of node %d out of range [0,%d)", b, u, k)
		}
		w[b] += g.nodeW[u]
	}
	q := NewWithWeights(w)
	c := g.ToCSR()
	for u, bu := range blocks {
		nbrs, wts := c.Row(Node(u))
		for i, v := range nbrs {
			if Node(u) < v && bu != blocks[v] {
				q.MustAddEdge(Node(bu), Node(blocks[v]), wts[i])
			}
		}
	}
	return q, nil
}
