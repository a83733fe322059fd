package graph

import (
	"fmt"
	"sort"
)

// Stats summarizes a graph's structure — the numbers an engineer wants
// before deciding K and the constraint budget for a partitioning run.
type Stats struct {
	// Nodes and Edges are the element counts.
	Nodes, Edges int
	// Density is 2m / (n(n-1)).
	Density float64
	// MinDegree, MaxDegree, MeanDegree describe connectivity.
	MinDegree, MaxDegree int
	MeanDegree           float64
	// TotalNodeWeight / TotalEdgeWeight are the weight sums.
	TotalNodeWeight, TotalEdgeWeight int64
	// MaxNodeWeight / MaxEdgeWeight are the heaviest elements.
	MaxNodeWeight, MaxEdgeWeight int64
	// MedianNodeWeight is the weight of the middle node.
	MedianNodeWeight int64
	// Components is the number of connected components.
	Components int
}

// ComputeStats gathers the summary in one pass (plus a component sweep).
func ComputeStats(g *Graph) Stats {
	n := g.NumNodes()
	st := Stats{
		Nodes:           n,
		Edges:           g.NumEdges(),
		TotalNodeWeight: g.TotalNodeWeight(),
		TotalEdgeWeight: g.TotalEdgeWeight(),
		MaxNodeWeight:   g.MaxNodeWeight(),
	}
	if n == 0 {
		return st
	}
	st.MinDegree = g.Degree(0)
	weights := make([]int64, n)
	var degSum int
	for u := 0; u < n; u++ {
		d := g.Degree(Node(u))
		degSum += d
		if d < st.MinDegree {
			st.MinDegree = d
		}
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
		weights[u] = g.NodeWeight(Node(u))
		_, wts := g.Row(Node(u))
		for _, w := range wts {
			st.MaxEdgeWeight = max(st.MaxEdgeWeight, w)
		}
	}
	st.MeanDegree = float64(degSum) / float64(n)
	if n > 1 {
		st.Density = 2 * float64(g.NumEdges()) / (float64(n) * float64(n-1))
	}
	sort.Slice(weights, func(a, b int) bool { return weights[a] < weights[b] })
	st.MedianNodeWeight = weights[n/2]
	_, st.Components = g.ConnectedComponents()
	return st
}

// String renders the stats as aligned lines.
func (s Stats) String() string {
	return fmt.Sprintf(
		"nodes=%d edges=%d density=%.4f components=%d\n"+
			"degree min/mean/max = %d / %.2f / %d\n"+
			"node weight total/median/max = %d / %d / %d\n"+
			"edge weight total/max = %d / %d",
		s.Nodes, s.Edges, s.Density, s.Components,
		s.MinDegree, s.MeanDegree, s.MaxDegree,
		s.TotalNodeWeight, s.MedianNodeWeight, s.MaxNodeWeight,
		s.TotalEdgeWeight, s.MaxEdgeWeight)
}
