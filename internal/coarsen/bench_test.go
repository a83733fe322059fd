package coarsen

import (
	"fmt"
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

// BenchmarkContract contracts a random connected graph under its
// heavy-edge matching. At n10000 the coarse rows and any per-level
// scratch fit in cache; n100000 is the size where they do not.
func BenchmarkContract(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		rng := rand.New(rand.NewSource(1))
		g := randomConnected(rng, n)
		m := mustCompute(b, match.HeuristicHeavyEdge, g, nil)
		gc := g.ToCSR()
		ws := new(arena.Workspace)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ContractWS(ws, gc, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
