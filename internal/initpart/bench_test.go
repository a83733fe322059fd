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

// BenchmarkRecursiveBisect seeds a 4-way partition of a random 200-node
// graph, the coarsest-graph scale mlkp seeds at; cut pins the seeding.
func BenchmarkRecursiveBisect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 200)
	csr := g.ToCSR()
	b.ResetTimer()
	var parts []int
	for i := 0; i < b.N; i++ {
		var err error
		if parts, err = RecursiveBisect(csr, 4, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(metrics.EdgeCut(g, parts)), "cut")
}

func BenchmarkSpectralBisect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	csr := randomConnected(rng, 200).ToCSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SpectralBisect(csr, rand.New(rand.NewSource(2))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFiedlerVector(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	csr := randomConnected(rng, 500).ToCSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FiedlerVector(csr, rand.New(rand.NewSource(2)))
	}
}
