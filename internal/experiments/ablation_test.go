package experiments

import (
	"math/rand"
	"testing"

	"ppnpart/internal/core"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

func TestPolishStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const n = 80
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(30))
	}
	g := graph.NewWithWeights(w)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(1+rng.Intn(15)))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), int64(1+rng.Intn(15)))
		}
	}
	c := metrics.Constraints{
		Bmax: 2 * g.TotalEdgeWeight() / 4,
		Rmax: g.TotalNodeWeight()/3 + 20,
	}
	opts := core.Options{K: 4, Constraints: c, Seed: 7, MaxCycles: 2}
	plain, err := core.Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range polishStrategies[1:] {
		res, err := partitionPolished(g, opts, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := metrics.Validate(g, res.Parts, 4); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		// Polishing minimizes the same objective: goodness never worse.
		if res.Goodness > plain.Goodness {
			t.Fatalf("%s worsened goodness: %v > %v", p.name, res.Goodness, plain.Goodness)
		}
		// The Feasible flag and the report must describe the polished
		// assignment, not GP's.
		if res.Feasible != metrics.Feasible(g, res.Parts, 4, c) {
			t.Fatalf("%s: feasibility flag stale", p.name)
		}
		if res.Report.EdgeCut != metrics.EdgeCut(g, res.Parts) {
			t.Fatalf("%s: report cut %d stale", p.name, res.Report.EdgeCut)
		}
	}
}
