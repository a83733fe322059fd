package coarsen

import (
	"math/rand"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/match"
)

func BenchmarkBuildHierarchyBestOfThree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 10000).ToCSR()
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
	g := randomConnected(rng, 10000).ToCSR()
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
	gc := g.ToCSR()
	ws := new(arena.Workspace)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ContractWS(ws, gc, m); err != nil {
			b.Fatal(err)
		}
	}
}
