package initpart

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

func randomConnected(rng *rand.Rand, n int) *graph.Graph {
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
	return g
}

func allPartsNonEmpty(parts []int, k int) bool {
	for _, s := range metrics.PartSizes(parts, k) {
		if s == 0 {
			return false
		}
	}
	return true
}

func TestGreedyGrowBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 60)
	parts, err := GreedyGrowWS(new(arena.Workspace), g.ToCSR(), GreedyOptions{K: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(g, parts, 4); err != nil {
		t.Fatal(err)
	}
	if !allPartsNonEmpty(parts, 4) {
		t.Fatal("greedy left an empty part")
	}
}

func TestGreedyGrowSeedsAtHeaviestFirstAttempt(t *testing.T) {
	// With Restarts=1 the paper's deterministic heaviest-first seeding is
	// used; the heaviest node must be in part 0.
	g := graph.NewWithWeights([]int64{1, 1, 100, 1, 1, 1})
	for i := 1; i < 6; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), 1)
	}
	rng := rand.New(rand.NewSource(2))
	parts, err := GreedyGrowWS(new(arena.Workspace), g.ToCSR(), GreedyOptions{K: 2, Restarts: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if parts[2] != 0 {
		t.Fatalf("heaviest node in part %d, want 0", parts[2])
	}
}

func TestGreedyGrowRespectsRmaxWhenFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(rng, 40)
		// Generous bound: half the total for K=4 is easily feasible.
		rmax := g.TotalNodeWeight() / 2
		parts, err := GreedyGrowWS(new(arena.Workspace), g.ToCSR(), GreedyOptions{K: 4,
			Constraints: metrics.Constraints{Rmax: rmax}}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if r := metrics.MaxResource(g, parts, 4); r > rmax {
			t.Fatalf("trial %d: maxRes %d > Rmax %d", trial, r, rmax)
		}
	}
}

func TestGreedyGrowForcedPlacementWhenInfeasible(t *testing.T) {
	// Rmax smaller than the heaviest node: placement must still complete
	// (forced placement may violate Rmax, matching the paper).
	g := graph.NewWithWeights([]int64{50, 50, 50, 50})
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	rng := rand.New(rand.NewSource(4))
	parts, err := GreedyGrowWS(new(arena.Workspace), g.ToCSR(), GreedyOptions{K: 2,
		Constraints: metrics.Constraints{Rmax: 10}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(g, parts, 2); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyGrowErrors(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(5)), 5)
	rng := rand.New(rand.NewSource(5))
	if _, err := GreedyGrowWS(new(arena.Workspace), g.ToCSR(), GreedyOptions{K: 0}, rng); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := GreedyGrowWS(new(arena.Workspace), g.ToCSR(), GreedyOptions{K: 10}, rng); err == nil {
		t.Fatal("K > n accepted")
	}
}

func TestGreedyGrowRestartsImproveOrEqual(t *testing.T) {
	rng1 := rand.New(rand.NewSource(6))
	rng2 := rand.New(rand.NewSource(6))
	g := randomConnected(rand.New(rand.NewSource(7)), 50)
	c := metrics.Constraints{Bmax: 50, Rmax: g.TotalNodeWeight() / 2}
	one, err := GreedyGrowWS(new(arena.Workspace), g.ToCSR(), GreedyOptions{K: 4, Restarts: 1, Constraints: c}, rng1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := GreedyGrowWS(new(arena.Workspace), g.ToCSR(), GreedyOptions{K: 4, Restarts: 12, Constraints: c}, rng2)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Goodness(g, many, 4, c) > metrics.Goodness(g, one, 4, c) {
		t.Fatal("more restarts produced a worse goodness than the deterministic first attempt")
	}
}

// TestGreedyGrowEdgeScaleInvariant is metamorphic: multiplying every
// edge weight by 2^32 scales every frontier key and every cut by the
// same factor, so neither the pop order nor the restart winner can
// change. 2^32 lifts the total edge weight far past 2^31-1, so the same
// frontier order must hold for heavy bandwidths too. Node weights are
// drawn from {1,2,3} so heavy-first seeding meets many weight ties; Bmax
// is off and Rmax loose, so every restart is scored by its cut alone.
func TestGreedyGrowEdgeScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(150)
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(1 + rng.Intn(3))
		}
		g := graph.NewWithWeights(w)
		for i := 1; i < n; i++ {
			g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(1+rng.Intn(15)))
		}
		for i := 0; i < 2*n; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.MustAddEdge(graph.Node(u), graph.Node(v), int64(1+rng.Intn(15)))
			}
		}
		scaled := graph.NewWithWeights(w)
		for _, e := range g.Edges() {
			scaled.MustAddEdge(e.U, e.V, e.Weight<<32)
		}
		k := 2 + rng.Intn(4)
		opts := GreedyOptions{K: k, Constraints: metrics.Constraints{Rmax: g.TotalNodeWeight()/int64(k) + 3}}
		seed := rng.Int63()
		want, err := GreedyGrowWS(new(arena.Workspace), g.ToCSR(), opts, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := GreedyGrowWS(new(arena.Workspace), scaled.ToCSR(), opts, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, K=%d): scaled edges changed the parts\nunscaled: %v\nscaled:   %v", trial, n, k, want, got)
		}
	}
}

func TestRandomPartitionValid(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnected(rng, 30)
	parts, err := RandomPartitionWS(new(arena.Workspace), g.ToCSR(), 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(g, parts, 5); err != nil {
		t.Fatal(err)
	}
	if !allPartsNonEmpty(parts, 5) {
		t.Fatal("random partition left empty part")
	}
	if _, err := RandomPartitionWS(new(arena.Workspace), g.ToCSR(), 0, rng); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := RandomPartitionWS(new(arena.Workspace), g.ToCSR(), 31, rng); err == nil {
		t.Fatal("K > n accepted")
	}
}

func TestRecursiveBisectBalancedAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{2, 3, 4, 5, 7, 8} {
		g := randomConnected(rng, 80)
		parts, err := RecursiveBisect(g.ToCSR(), k, rng)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := metrics.Validate(g, parts, k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !allPartsNonEmpty(parts, k) {
			t.Fatalf("k=%d: empty part", k)
		}
		// Resource balance should be moderate (< 2x ideal).
		if im := metrics.Imbalance(g, parts, k); im > 2.0 {
			t.Fatalf("k=%d: imbalance %.2f too high", k, im)
		}
	}
}

func TestRecursiveBisectSeparatesClusters(t *testing.T) {
	// Two 10-cliques joined by a light bridge: bisection should cut ~1.
	g := graph.New(20)
	for c := 0; c < 2; c++ {
		for i := 0; i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				g.MustAddEdge(graph.Node(c*10+i), graph.Node(c*10+j), 10)
			}
		}
	}
	g.MustAddEdge(0, 10, 1)
	rng := rand.New(rand.NewSource(10))
	parts, err := RecursiveBisect(g.ToCSR(), 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if cut := metrics.EdgeCut(g, parts); cut != 1 {
		t.Fatalf("cut = %d, want 1", cut)
	}
}

func TestSpectralBisectSeparatesClusters(t *testing.T) {
	g := graph.New(16)
	for c := 0; c < 2; c++ {
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				g.MustAddEdge(graph.Node(c*8+i), graph.Node(c*8+j), 5)
			}
		}
	}
	g.MustAddEdge(3, 11, 1)
	rng := rand.New(rand.NewSource(11))
	parts, err := SpectralBisect(g.ToCSR(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(g, parts, 2); err != nil {
		t.Fatal(err)
	}
	if cut := metrics.EdgeCut(g, parts); cut != 1 {
		t.Fatalf("spectral cut = %d, want 1", cut)
	}
}

func TestSpectralBisectErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	if _, err := SpectralBisect(graph.New(1).ToCSR(), rng); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestFiedlerVectorOrthogonalToConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomConnected(rng, 24)
	f := FiedlerVector(g.ToCSR(), rng)
	var sum, norm float64
	for _, v := range f {
		sum += v
		norm += v * v
	}
	if sum > 1e-6 || sum < -1e-6 {
		t.Fatalf("Fiedler vector not deflated: sum = %g", sum)
	}
	if norm < 0.99 || norm > 1.01 {
		t.Fatalf("Fiedler vector not normalized: |x|^2 = %g", norm)
	}
}

func TestFiedlerVectorSignStructureOnPath(t *testing.T) {
	// On a path graph the Fiedler vector is monotone: one sign change.
	g := graph.New(12)
	for i := 1; i < 12; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), 1)
	}
	rng := rand.New(rand.NewSource(14))
	f := FiedlerVector(g.ToCSR(), rng)
	changes := 0
	for i := 1; i < len(f); i++ {
		if (f[i-1] < 0) != (f[i] < 0) {
			changes++
		}
	}
	if changes != 1 {
		t.Fatalf("sign changes on path = %d, want 1 (vector %v)", changes, f)
	}
}

func TestSpectralKWay(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := randomConnected(rng, 60)
	for _, k := range []int{2, 3, 4, 6} {
		parts, err := SpectralKWay(g.ToCSR(), k, rng)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := metrics.Validate(g, parts, k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !allPartsNonEmpty(parts, k) {
			t.Fatalf("k=%d: empty part", k)
		}
	}
	if _, err := SpectralKWay(g.ToCSR(), 0, rng); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := SpectralKWay(g.ToCSR(), 61, rng); err == nil {
		t.Fatal("K>n accepted")
	}
}

func TestPropertyAllSeedersProduceValidPartitions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		g := randomConnected(rng, n)
		k := 2 + rng.Intn(5)
		pg, err1 := GreedyGrowWS(new(arena.Workspace), g.ToCSR(), GreedyOptions{K: k, Restarts: 3}, rng)
		pr, err2 := RandomPartitionWS(new(arena.Workspace), g.ToCSR(), k, rng)
		pb, err3 := RecursiveBisect(g.ToCSR(), k, rng)
		ps, err4 := SpectralKWay(g.ToCSR(), k, rng)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		for _, p := range [][]int{pg, pr, pb, ps} {
			if metrics.Validate(g, p, k) != nil || !allPartsNonEmpty(p, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGreedyPrefersFeasibleUnderLooseConstraints(t *testing.T) {
	// With a loose Rmax (total weight) and huge Bmax every partition is
	// feasible, so goodness must equal the cut.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 10+rng.Intn(40))
		k := 2 + rng.Intn(3)
		c := metrics.Constraints{Bmax: 1 << 40, Rmax: g.TotalNodeWeight()}
		parts, err := GreedyGrowWS(new(arena.Workspace), g.ToCSR(), GreedyOptions{K: k, Restarts: 3, Constraints: c}, rng)
		if err != nil {
			return false
		}
		return metrics.Feasible(g, parts, k, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
