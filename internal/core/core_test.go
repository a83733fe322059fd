package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

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

func TestPartitionUnconstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 60)
	res, err := Partition(g, Options{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("unconstrained run must be feasible")
	}
	if err := metrics.Validate(g, res.Parts, 4); err != nil {
		t.Fatal(err)
	}
	if res.Goodness != float64(res.Report.EdgeCut) {
		t.Fatalf("feasible goodness %v != cut %d", res.Goodness, res.Report.EdgeCut)
	}
}

func TestPartitionMeetsLooseConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(rng, 80)
	c := metrics.Constraints{
		Bmax: g.TotalEdgeWeight(),        // trivially loose
		Rmax: g.TotalNodeWeight()/2 + 50, // loose for K=4
	}
	res, err := Partition(g, Options{K: 4, Constraints: c, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("loose constraints should be met: %+v", res.Report.Violations)
	}
	if res.Message != "" {
		t.Fatal("feasible result must not carry an infeasibility message")
	}
}

func TestPartitionMeetsTightResourceConstraint(t *testing.T) {
	// Uniform weights: Rmax 35% of total for K=4 forces genuine balance.
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 100)
	rmax := g.TotalNodeWeight()*35/100 + 1
	res, err := Partition(g, Options{
		K:           4,
		Constraints: metrics.Constraints{Rmax: rmax},
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("resource-constrained run infeasible: %v", res.Report.Violations)
	}
	if res.Report.MaxResource > rmax {
		t.Fatalf("MaxResource %d > Rmax %d", res.Report.MaxResource, rmax)
	}
}

func TestPartitionMeetsBandwidthConstraint(t *testing.T) {
	// Ring of 4 clusters with known inter-cluster traffic: Bmax slightly
	// above a single bridge forces the partitioner to align with clusters.
	g := graph.New(32)
	for c := 0; c < 4; c++ {
		base := c * 8
		for i := 0; i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				g.MustAddEdge(graph.Node(base+i), graph.Node(base+j), 5)
			}
		}
	}
	for c := 0; c < 4; c++ {
		g.MustAddEdge(graph.Node(c*8), graph.Node(((c+1)%4)*8+1), 3)
	}
	res, err := Partition(g, Options{
		K:           4,
		Constraints: metrics.Constraints{Bmax: 6, Rmax: 10},
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("bandwidth-constrained run infeasible: %v (bw=%v)",
			res.Report.Violations, metrics.BandwidthMatrix(g, res.Parts, 4))
	}
	if res.Report.MaxLocalBandwidth > 6 {
		t.Fatalf("MaxLocalBandwidth %d > 6", res.Report.MaxLocalBandwidth)
	}
}

func TestPartitionImpossibleConstraintSignalsInfeasible(t *testing.T) {
	// Rmax below the heaviest node: provably impossible.
	g := graph.NewWithWeights([]int64{100, 1, 1, 1, 1, 1, 1, 1})
	for i := 1; i < 8; i++ {
		g.MustAddEdge(0, graph.Node(i), 1)
	}
	res, err := Partition(g, Options{
		K:           2,
		Constraints: metrics.Constraints{Rmax: 50},
		MaxCycles:   4,
		Seed:        6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("impossible constraints reported feasible")
	}
	if !strings.Contains(res.Message, "impossible or need more iterations") {
		t.Fatalf("missing infeasibility message, got %q", res.Message)
	}
	// Even infeasible, a best-effort partition must be returned and valid.
	if err := metrics.Validate(g, res.Parts, 2); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnected(rng, 120)
	c := metrics.Constraints{Bmax: 120, Rmax: g.TotalNodeWeight()/3 + 30}
	r1, err := Partition(g, Options{K: 4, Constraints: c, Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Partition(g, Options{K: 4, Constraints: c, Seed: 9, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Goodness != r8.Goodness || r1.Feasible != r8.Feasible {
		t.Fatalf("parallelism changed outcome: serial %v/%v vs parallel %v/%v",
			r1.Goodness, r1.Feasible, r8.Goodness, r8.Feasible)
	}
	for i := range r1.Parts {
		if r1.Parts[i] != r8.Parts[i] {
			t.Fatal("parallelism changed the partition")
		}
	}
}

func TestPartitionDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnected(rng, 90)
	r1, _ := Partition(g, Options{K: 3, Seed: 42})
	r2, _ := Partition(g, Options{K: 3, Seed: 42})
	for i := range r1.Parts {
		if r1.Parts[i] != r2.Parts[i] {
			t.Fatal("same seed gave different partitions")
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	g := graph.New(3)
	if _, err := Partition(g, Options{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := Partition(g, Options{K: 4}); err == nil {
		t.Fatal("K>n accepted")
	}
}

func TestPartitionMultilevelOnLargeGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnected(rng, 500)
	c := metrics.Constraints{Rmax: g.TotalNodeWeight()/3 + 100}
	res, err := Partition(g, Options{K: 4, Constraints: c, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("large-graph run infeasible: %v", res.Report.Violations)
	}
	if err := metrics.Validate(g, res.Parts, 4); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeAfterFeasibleUsesFullBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := randomConnected(rng, 60)
	res, err := Partition(g, Options{
		K: 3, Seed: 11, MaxCycles: 6, MinimizeAfterFeasible: true, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 6 {
		t.Fatalf("cycles = %d, want full budget 6", res.Cycles)
	}
	// The minimized result can never be worse than the single-cycle one.
	quick1, err := Partition(g, Options{K: 3, Seed: 11, MaxCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodness > quick1.Goodness {
		t.Fatalf("more cycles worsened goodness: %v vs %v", res.Goodness, quick1.Goodness)
	}
}

func TestPartitionSmallPaperScaleGraph(t *testing.T) {
	// 12 nodes / K=4 — the scale of the paper's experiments; coarsening is
	// a no-op and everything rides on the initial partitioner + repair.
	rng := rand.New(rand.NewSource(11))
	g := randomConnected(rng, 12)
	c := metrics.Constraints{
		Bmax: g.TotalEdgeWeight() / 2,
		Rmax: g.TotalNodeWeight()/2 + 20,
	}
	res, err := Partition(g, Options{K: 4, Constraints: c, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(g, res.Parts, 4); err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("paper-scale loose run infeasible: %v", res.Report.Violations)
	}
}

func TestPropertyPartitionAlwaysValidAndNonEmpty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(80)
		g := randomConnected(rng, n)
		k := 2 + rng.Intn(4)
		res, err := Partition(g, Options{K: k, Seed: seed, MaxCycles: 2})
		if err != nil {
			return false
		}
		if metrics.Validate(g, res.Parts, k) != nil {
			return false
		}
		for _, s := range metrics.PartSizes(res.Parts, k) {
			if s == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFeasibleClaimsAreTrue(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		g := randomConnected(rng, n)
		k := 2 + rng.Intn(3)
		c := metrics.Constraints{
			Bmax: int64(1 + rng.Intn(int(g.TotalEdgeWeight()))),
			Rmax: g.TotalNodeWeight()/int64(k) + int64(rng.Intn(100)),
		}
		res, err := Partition(g, Options{K: k, Constraints: c, Seed: seed, MaxCycles: 3})
		if err != nil {
			return false
		}
		// The Feasible flag must agree with an independent recomputation.
		return res.Feasible == metrics.Feasible(g, res.Parts, k, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionVectorResources(t *testing.T) {
	// LUT-balanced but BRAM-skewed: half the nodes carry BRAM. A
	// scalar-only run may pack the BRAM nodes together; the vector run
	// must spread them.
	rng := rand.New(rand.NewSource(30))
	g := randomConnected(rng, 60)
	vecs := make([][]int64, 60)
	var totalBRAM int64
	for i := range vecs {
		var bram int64
		if i%2 == 0 {
			bram = 4
		}
		vecs[i] = []int64{g.NodeWeight(graph.Node(i)), bram}
		totalBRAM += bram
	}
	k := 4
	vc := metrics.VectorConstraints{Rmax: []int64{
		g.TotalNodeWeight()/int64(k) + 2*g.MaxNodeWeight(), // LUT: loose-ish
		totalBRAM/int64(k) + 8,                             // BRAM: binding
	}}
	res, err := Partition(g, Options{
		K:                 k,
		Constraints:       metrics.Constraints{Rmax: vc.Rmax[0]},
		VectorResources:   vecs,
		VectorConstraints: vc,
		Seed:              1,
		MaxCycles:         8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("vector-constrained run infeasible: vec totals %v (bounds %v)",
			metrics.PartResourceVectors(vecs, res.Parts, k), vc.Rmax)
	}
	if !metrics.VectorFeasible(vecs, res.Parts, k, vc) {
		t.Fatal("Feasible flag inconsistent with vector check")
	}
}

func TestPartitionVectorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomConnected(rng, 10)
	_, err := Partition(g, Options{
		K:               2,
		VectorResources: [][]int64{{1}}, // wrong length
	})
	if err == nil {
		t.Fatal("short vector table accepted")
	}
}

func TestNLevelCoarseningOption(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	g := randomConnected(rng, 300)
	c := metrics.Constraints{Rmax: g.TotalNodeWeight()/3 + 50}
	res, err := Partition(g, Options{K: 4, Constraints: c, Seed: 1, MaxCycles: 2, NLevelCoarsening: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("n-level run infeasible: %v", res.Report.Violations)
	}
	if err := metrics.Validate(g, res.Parts, 4); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionStress50k(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// The paper's §I claim: "large instances (millions of nodes and arcs)
	// ... few minutes". 50k nodes / 150k edges must finish in seconds.
	rng := rand.New(rand.NewSource(50))
	n := 50000
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(100))
	}
	g := graph.NewWithWeights(w)
	seen := map[graph.Edge]bool{} // distinct pairs so far: {U, V} weighs 0
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(1+rng.Intn(20)))
		seen[graph.Edge{U: graph.Node(i - 1), V: graph.Node(i)}] = true
	}
	for len(seen) < 3*n {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), int64(1+rng.Intn(20)))
			seen[graph.Edge{U: graph.Node(u), V: graph.Node(v)}.Normalize()] = true
		}
	}
	c := metrics.Constraints{Rmax: g.TotalNodeWeight()*30/100 + g.MaxNodeWeight()}
	start := time.Now()
	res, err := Partition(g, Options{K: 8, Constraints: c, Seed: 1, MaxCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !res.Feasible {
		t.Fatalf("50k-node run infeasible: %v", res.Report.Violations)
	}
	if err := metrics.Validate(g, res.Parts, 8); err != nil {
		t.Fatal(err)
	}
	if elapsed > time.Minute {
		t.Fatalf("50k-node partition took %v, want well under a minute", elapsed)
	}
	t.Logf("50k nodes / %d edges partitioned in %v, cut=%d", g.NumEdges(), elapsed, res.Report.EdgeCut)
}
