package graph

import (
	"math/rand"
	"testing"
)

// benchEdges draws a connected simple graph of n nodes and m edges: a
// path, then distinct random pairs.
func benchEdges(n, m int) ([]int64, []Edge) {
	rng := rand.New(rand.NewSource(1))
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(100))
	}
	var edges []Edge
	seen := map[Edge]bool{}
	add := func(u, v int) {
		e := Edge{U: Node(u), V: Node(v)}.Normalize()
		if u != v && !seen[e] {
			seen[e] = true
			edges = append(edges, Edge{U: Node(u), V: Node(v), Weight: int64(1 + rng.Intn(20))})
		}
	}
	for i := 1; i < n; i++ {
		add(i-1, i)
	}
	for len(edges) < m {
		add(rng.Intn(n), rng.Intn(n))
	}
	return w, edges
}

func benchGraph(n, m int) *Graph {
	w, edges := benchEdges(n, m)
	g := NewWithWeights(w)
	for _, e := range edges {
		g.MustAddEdge(e.U, e.V, e.Weight)
	}
	return g
}

// BenchmarkBuildFold times building a graph from AddEdge calls and its
// first read, which folds the queued edges into the graph's CSR.
func BenchmarkBuildFold(b *testing.B) {
	w, edges := benchEdges(10000, 30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewWithWeights(w)
		for _, e := range edges {
			g.MustAddEdge(e.U, e.V, e.Weight)
		}
		_ = g.ToCSR()
	}
}

func BenchmarkQuotient(b *testing.B) {
	g := benchGraph(10000, 30000)
	blocks := make([]int, g.NumNodes())
	for i := range blocks {
		blocks[i] = i % 8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Quotient(blocks, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := benchGraph(10000, 30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConnectedComponents()
	}
}

func BenchmarkEdgesEnumeration(b *testing.B) {
	g := benchGraph(10000, 30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Edges()
	}
}
