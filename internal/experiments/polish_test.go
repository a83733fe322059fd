package experiments

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// twoClusters builds two dense clusters of size sz joined by one light
// bridge; the optimal bisection separates the clusters.
func twoClusters(sz int) *graph.Graph {
	g := graph.New(2 * sz)
	for c := 0; c < 2; c++ {
		base := c * sz
		for i := 0; i < sz; i++ {
			for j := i + 1; j < sz; j++ {
				g.MustAddEdge(graph.Node(base+i), graph.Node(base+j), 10)
			}
		}
	}
	g.MustAddEdge(0, graph.Node(sz), 1)
	return g
}

func randomConnected(rng *rand.Rand, n int) *graph.Graph {
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(20))
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
	return g
}

// interleaved assigns node i to part i mod k.
func interleaved(n, k int) []int {
	parts := make([]int, n)
	for i := range parts {
		parts[i] = i % k
	}
	return parts
}

func TestTabuSearchImprovesInterleavedClusters(t *testing.T) {
	g := twoClusters(8)
	parts := interleaved(g.NumNodes(), 2)
	tabuSearch(g.ToCSR(), parts, 2, metrics.Constraints{})
	if err := metrics.Validate(g, parts, 2); err != nil {
		t.Fatal(err)
	}
	// Tabu escapes FM's 15/1 trap because nodes can move repeatedly;
	// with cluster structure it reaches the bridge cut.
	if cut := metrics.EdgeCut(g, parts); cut != 1 {
		t.Fatalf("tabu cut = %d, want 1", cut)
	}
}

func TestTabuSearchRepairsConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		g := randomConnected(rng, 40)
		k := 4
		parts := make([]int, 40)
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		c := metrics.Constraints{
			Bmax: 2 * g.TotalEdgeWeight() / int64(k),
			Rmax: g.TotalNodeWeight()/int64(k) + g.MaxNodeWeight()*2,
		}
		tabuSearch(g.ToCSR(), parts, k, c)
		if err := metrics.Validate(g, parts, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !metrics.Feasible(g, parts, k, c) {
			t.Fatalf("trial %d: tabu failed to reach feasibility under loose constraints", trial)
		}
	}
}

func TestTabuSearchNeverWorsensObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(rng, 30)
		k := 3
		parts := make([]int, 30)
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		c := metrics.Constraints{Bmax: g.TotalEdgeWeight() / 2, Rmax: g.TotalNodeWeight()}
		before := metrics.Goodness(g, parts, k, c)
		tabuSearch(g.ToCSR(), parts, k, c)
		if after := metrics.Goodness(g, parts, k, c); after > before {
			t.Fatalf("trial %d: tabu worsened goodness %v -> %v", trial, before, after)
		}
	}
}

func TestAnnealImprovesInterleavedClusters(t *testing.T) {
	g := twoClusters(6)
	parts := interleaved(g.NumNodes(), 2)
	before := metrics.EdgeCut(g, parts)
	anneal(g.ToCSR(), parts, 2, metrics.Constraints{}, rand.New(rand.NewSource(3)))
	if err := metrics.Validate(g, parts, 2); err != nil {
		t.Fatal(err)
	}
	if after := metrics.EdgeCut(g, parts); after >= before {
		t.Fatalf("anneal did not improve: %d -> %d", before, after)
	}
}

func TestAnnealNeverWorsensBest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(rng, 24)
		k := 3
		parts := make([]int, 24)
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		c := metrics.Constraints{Bmax: g.TotalEdgeWeight(), Rmax: g.TotalNodeWeight()}
		before := metrics.Goodness(g, parts, k, c)
		anneal(g.ToCSR(), parts, k, c, rng)
		// Only improvements are written back, so nothing regresses.
		if after := metrics.Goodness(g, parts, k, c); after > before {
			t.Fatalf("trial %d: anneal worsened goodness %v -> %v", trial, before, after)
		}
		if err := metrics.Validate(g, parts, k); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAnnealDeterministicForSeed(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(5)), 30)
	p1, p2 := interleaved(30, 3), interleaved(30, 3)
	anneal(g.ToCSR(), p1, 3, metrics.Constraints{}, rand.New(rand.NewSource(9)))
	anneal(g.ToCSR(), p2, 3, metrics.Constraints{}, rand.New(rand.NewSource(9)))
	if !slices.Equal(p1, p2) {
		t.Fatal("same seed produced different anneal results")
	}
}

// TestPolishDegenerateInputs checks both passes are no-ops on an empty
// graph and at k = 1.
func TestPolishDegenerateInputs(t *testing.T) {
	empty := graph.New(0).ToCSR()
	tabuSearch(empty, nil, 1, metrics.Constraints{})
	anneal(empty, nil, 1, metrics.Constraints{}, rand.New(rand.NewSource(1)))
	g := graph.New(3)
	g.MustAddEdge(0, 1, 4)
	g.MustAddEdge(1, 2, 4)
	for name, run := range map[string]func(parts []int){
		"tabu":   func(parts []int) { tabuSearch(g.ToCSR(), parts, 1, metrics.Constraints{}) },
		"anneal": func(parts []int) { anneal(g.ToCSR(), parts, 1, metrics.Constraints{}, rand.New(rand.NewSource(1))) },
	} {
		parts := []int{0, 0, 0}
		run(parts)
		if !slices.Equal(parts, []int{0, 0, 0}) {
			t.Fatalf("%s changed a k=1 assignment: %v", name, parts)
		}
	}
}

func TestPropertyTabuAndAnnealPreserveValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 10+rng.Intn(30))
		k := 2 + rng.Intn(3)
		parts := make([]int, g.NumNodes())
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		c := metrics.Constraints{
			Bmax: int64(1 + rng.Intn(int(g.TotalEdgeWeight())+1)),
			Rmax: g.TotalNodeWeight()/int64(k) + int64(rng.Intn(50)),
		}
		pt := slices.Clone(parts)
		tabuSearch(g.ToCSR(), pt, k, c)
		if metrics.Validate(g, pt, k) != nil {
			return false
		}
		pa := slices.Clone(parts)
		anneal(g.ToCSR(), pa, k, c, rng)
		return metrics.Validate(g, pa, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
