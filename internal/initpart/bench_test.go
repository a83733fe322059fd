package initpart

import (
	"math/rand"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/metrics"
)

func BenchmarkGreedyGrow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 200) // coarsest-graph scale
	opts := GreedyOptions{K: 4, Restarts: 10,
		Constraints: metrics.Constraints{Rmax: g.TotalNodeWeight() / 3}}
	ws, csr := new(arena.Workspace), g.ToCSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyGrowWS(ws, csr, opts, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecursiveBisect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RecursiveBisect(g, 4, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpectralBisect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SpectralBisect(g, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFiedlerVector(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FiedlerVector(g, rand.New(rand.NewSource(2)))
	}
}
