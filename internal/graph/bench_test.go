package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(n, m int) *Graph {
	rng := rand.New(rand.NewSource(1))
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(100))
	}
	g := NewWithWeights(w)
	for i := 1; i < n; i++ {
		g.MustAddEdge(Node(i-1), Node(i), int64(1+rng.Intn(20)))
	}
	for g.NumEdges() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(Node(u), Node(v)) {
			g.MustAddEdge(Node(u), Node(v), int64(1+rng.Intn(20)))
		}
	}
	return g
}

// BenchmarkToCSR times a snapshot into fresh storage.
func BenchmarkToCSR(b *testing.B) {
	g := benchGraph(10000, 30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.ToCSR()
	}
}

// BenchmarkSnapshot times the recycled form: each timed snapshot
// rewrites a CSR that already held the graph, as arena.Snapshot does
// across solves.
func BenchmarkSnapshot(b *testing.B) {
	g := benchGraph(10000, 30000)
	var c CSR
	g.SnapshotInto(&c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SnapshotInto(&c)
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
