package pstate

import (
	"math/rand"
	"testing"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

func benchSetup(n, k int) (*graph.Graph, *State, []int) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(n, 3*n, rng)
	parts := make([]int, n)
	for i := range parts {
		parts[i] = rng.Intn(k)
	}
	s, err := New(g.ToCSR(), parts, Config{
		K: k, Constraints: metrics.Constraints{Bmax: 100, Rmax: int64(30 * n / k)},
	})
	if err != nil {
		panic(err)
	}
	return g, s, parts
}

// BenchmarkPStateMove measures one incremental Move+Undo round trip — the
// O(deg) unit the refinement loops pay per candidate step.
func BenchmarkPStateMove(b *testing.B) {
	n, k := 10000, 8
	_, s, _ := benchSetup(n, k)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Move(graph.Node(rng.Intn(n)), rng.Intn(k))
		s.Undo()
	}
}

// BenchmarkPStateGoodness measures the O(1) maintained-goodness query.
func BenchmarkPStateGoodness(b *testing.B) {
	_, s, _ := benchSetup(10000, 8)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.Goodness()
	}
	_ = sink
}

// BenchmarkPStateScratchGoodness is the from-scratch O(E + K²) evaluation
// the engine replaces; contrast with BenchmarkPStateGoodness.
func BenchmarkPStateScratchGoodness(b *testing.B) {
	g, s, _ := benchSetup(10000, 8)
	c := metrics.Constraints{Bmax: 100, Rmax: int64(30 * 10000 / 8)}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = metrics.Goodness(g, s.Parts(), 8, c)
	}
	_ = sink
}

// BenchmarkPStateNew measures building the state once per hierarchy level.
func BenchmarkPStateNew(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(10000, 30000, rng)
	csr := g.ToCSR()
	parts := make([]int, 10000)
	for i := range parts {
		parts[i] = rng.Intn(8)
	}
	cfg := Config{K: 8, Constraints: metrics.Constraints{Bmax: 100, Rmax: 37500}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(csr, parts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
