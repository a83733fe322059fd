package match

import (
	"math/rand"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
)

func benchGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(1))
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(100))
	}
	g := graph.NewWithWeights(w)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(1+rng.Intn(20)))
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), int64(1+rng.Intn(20)))
		}
	}
	return g
}

func BenchmarkRandomMatching(b *testing.B) {
	g := benchGraph(10000).ToCSR()
	rng := rand.New(rand.NewSource(2))
	ws := new(arena.Workspace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = randomWS(ws, g, rng)
	}
}

func BenchmarkHeavyEdgeMatching(b *testing.B) {
	g := benchGraph(10000).ToCSR()
	ws := new(arena.Workspace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = heavyEdgeWS(ws, g)
	}
}

func BenchmarkKMeansMatching(b *testing.B) {
	g := benchGraph(10000).ToCSR()
	rng := rand.New(rand.NewSource(3))
	ws := new(arena.Workspace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kMeansWS(ws, g, 4, rng)
	}
}
