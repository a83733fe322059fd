package refine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

func TestTabuSearchImprovesInterleavedClusters(t *testing.T) {
	g := twoClusters(8)
	parts := make([]int, g.NumNodes())
	for i := range parts {
		parts[i] = i % 2
	}
	st, feasible := TabuSearchCSR(g.ToCSR(), parts, 2, metrics.Constraints{}, TabuOptions{})
	if !feasible {
		t.Fatal("unconstrained run must end feasible")
	}
	if st.CutAfter >= st.CutBefore {
		t.Fatalf("tabu did not improve: %d -> %d", st.CutBefore, st.CutAfter)
	}
	// Tabu escapes FM's 15/1 trap because nodes can move repeatedly;
	// with cluster structure it should reach the bridge cut.
	if st.CutAfter != 1 {
		t.Fatalf("tabu cut = %d, want 1", st.CutAfter)
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
		_, feasible := TabuSearchCSR(g.ToCSR(), parts, k, c, TabuOptions{})
		if err := metrics.Validate(g, parts, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if feasible != metrics.Feasible(g, parts, k, c) {
			t.Fatalf("trial %d: feasibility flag disagrees with metrics", trial)
		}
		if !feasible {
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
		TabuSearchCSR(g.ToCSR(), parts, k, c, TabuOptions{Iterations: 500})
		after := metrics.Goodness(g, parts, k, c)
		if after > before {
			t.Fatalf("trial %d: tabu worsened goodness %v -> %v", trial, before, after)
		}
	}
}

func TestAnnealImprovesInterleavedClusters(t *testing.T) {
	g := twoClusters(6)
	parts := make([]int, g.NumNodes())
	for i := range parts {
		parts[i] = i % 2
	}
	rng := rand.New(rand.NewSource(3))
	st, feasible := AnnealCSR(g.ToCSR(), parts, 2, metrics.Constraints{}, AnnealOptions{}, rng)
	if !feasible {
		t.Fatal("unconstrained run must end feasible")
	}
	if st.CutAfter >= st.CutBefore {
		t.Fatalf("anneal did not improve: %d -> %d", st.CutBefore, st.CutAfter)
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
		AnnealCSR(g.ToCSR(), parts, k, c, AnnealOptions{Iterations: 2000}, rng)
		after := metrics.Goodness(g, parts, k, c)
		// Best-state restoration guarantees no regression.
		if after > before {
			t.Fatalf("trial %d: anneal worsened goodness %v -> %v", trial, before, after)
		}
		if err := metrics.Validate(g, parts, k); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAnnealDeterministicForSeed(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(5)), 30)
	base := make([]int, 30)
	for i := range base {
		base[i] = i % 3
	}
	p1 := append([]int(nil), base...)
	p2 := append([]int(nil), base...)
	AnnealCSR(g.ToCSR(), p1, 3, metrics.Constraints{}, AnnealOptions{}, rand.New(rand.NewSource(9)))
	AnnealCSR(g.ToCSR(), p2, 3, metrics.Constraints{}, AnnealOptions{}, rand.New(rand.NewSource(9)))
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed produced different anneal results")
		}
	}
}

func TestAnnealDegenerateInputs(t *testing.T) {
	g := graph.New(0)
	st, feasible := AnnealCSR(g.ToCSR(), nil, 1, metrics.Constraints{}, AnnealOptions{}, rand.New(rand.NewSource(1)))
	if !feasible || st.Moves != 0 {
		t.Fatal("empty graph should be a feasible no-op")
	}
	g2 := graph.New(3)
	parts := []int{0, 0, 0}
	_, ok := AnnealCSR(g2.ToCSR(), parts, 1, metrics.Constraints{}, AnnealOptions{}, rand.New(rand.NewSource(1)))
	if !ok {
		t.Fatal("k=1 unconstrained should be feasible")
	}
}

func TestObjectiveOrdering(t *testing.T) {
	// Any state with excess must score worse than any state without.
	p := int64(1001) // penalty for a graph with total edge weight 1000
	feasibleHighCut := objective(1000, 0, p)
	infeasibleLowCut := objective(0, 1, p)
	if infeasibleLowCut <= feasibleHighCut {
		t.Fatal("penalty too weak: infeasible state preferred")
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
		pt := append([]int(nil), parts...)
		TabuSearchCSR(g.ToCSR(), pt, k, c, TabuOptions{Iterations: 200})
		if metrics.Validate(g, pt, k) != nil {
			return false
		}
		pa := append([]int(nil), parts...)
		AnnealCSR(g.ToCSR(), pa, k, c, AnnealOptions{Iterations: 500}, rng)
		return metrics.Validate(g, pa, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
