package coarsen

import (
	"math/rand"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/match"
)

func BenchmarkBuildHierarchyBestOfThree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 10000)
	ws := new(arena.Workspace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWS(ws, g, Options{TargetSize: 100}, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildHierarchyHEMOnly(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 10000)
	opts := Options{TargetSize: 100, Heuristics: []match.Heuristic{match.HeuristicHeavyEdge}}
	ws := new(arena.Workspace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWS(ws, g, opts, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContract(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 10000)
	m := mustCompute(b, match.HeuristicHeavyEdge, g, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Contract(g, m); err != nil {
			b.Fatal(err)
		}
	}
}
