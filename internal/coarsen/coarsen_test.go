package coarsen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
	"ppnpart/internal/metrics"
)

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(i))
	}
	return g
}

func randomConnected(rng *rand.Rand, n int) *graph.Graph {
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(40))
	}
	g := graph.NewWithWeights(w)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(1+rng.Intn(20)))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), int64(1+rng.Intn(20)))
		}
	}
	return g
}

func mustCompute(tb testing.TB, h match.Heuristic, g *graph.Graph, rng *rand.Rand) match.Matching {
	tb.Helper()
	m, err := match.Compute(h, g, 0, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestContractPair(t *testing.T) {
	// Triangle with weights; contract {0,1}.
	g := graph.NewWithWeights([]int64{10, 20, 30})
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 7)
	g.MustAddEdge(0, 2, 9)
	m := match.NewMatching(3)
	m[0], m[1] = 1, 0
	lvl, err := Contract(g, m)
	if err != nil {
		t.Fatal(err)
	}
	c := lvl.Coarse.ToGraph()
	if c.NumNodes() != 2 {
		t.Fatalf("coarse nodes = %d, want 2", c.NumNodes())
	}
	// Merged node weight 30, singleton keeps 30.
	cu := lvl.FineToCoarse[0]
	if lvl.FineToCoarse[1] != cu {
		t.Fatal("pair not mapped together")
	}
	if c.NodeWeight(cu) != 30 {
		t.Fatalf("merged weight = %d, want 30", c.NodeWeight(cu))
	}
	cv := lvl.FineToCoarse[2]
	if c.NodeWeight(cv) != 30 {
		t.Fatalf("singleton weight = %d, want 30", c.NodeWeight(cv))
	}
	// Edges {1,2}=7 and {0,2}=9 fold into one coarse edge of 16.
	if c.NumEdges() != 1 || c.EdgeWeight(cu, cv) != 16 {
		t.Fatalf("coarse edge weight = %d, want 16", c.EdgeWeight(cu, cv))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContractPreservesNodeWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 40)
	m := mustCompute(t, match.HeuristicRandom, g, rng)
	lvl, err := Contract(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if lvl.Coarse.NodeWT != g.TotalNodeWeight() {
		t.Fatal("contraction changed total node weight")
	}
	// Hidden weight = matched weight; exposed = total - hidden.
	if lvl.Coarse.EdgeWT != g.TotalEdgeWeight()-m.MatchedWeight(g.ToCSR()) {
		t.Fatal("contraction edge weight accounting wrong")
	}
}

func TestContractErrors(t *testing.T) {
	g := pathGraph(3)
	if _, err := Contract(g, match.NewMatching(2)); err == nil {
		t.Fatal("short matching accepted")
	}
	bad := match.NewMatching(3)
	bad[0] = 1 // asymmetric
	if _, err := Contract(g, bad); err == nil {
		t.Fatal("asymmetric matching accepted")
	}
}

func TestProjectUp(t *testing.T) {
	g := pathGraph(4)
	m := match.NewMatching(4)
	m[0], m[1] = 1, 0
	m[2], m[3] = 3, 2
	lvl, err := Contract(g, m)
	if err != nil {
		t.Fatal(err)
	}
	h := &Hierarchy{Original: g.ToCSR(), Levels: []*Level{lvl}}
	fine, err := h.ProjectTo([]int{0, 1}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fine[0] != fine[1] || fine[2] != fine[3] || fine[0] == fine[2] {
		t.Fatalf("projection = %v", fine)
	}
	if _, err := h.ProjectTo([]int{0}, 1, 0); err == nil {
		t.Fatal("short projection input accepted")
	}
	if err := lvl.ProjectUpInto([]int{0, 1}, make([]int, 3)); err == nil {
		t.Fatal("short projection output accepted")
	}
}

func TestBuildHierarchyReachesTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(rng, 300)
	h, err := BuildWS(new(arena.Workspace), g.ToCSR(), Options{TargetSize: 50}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h.Coarsest().NumNodes() > 50*2 {
		// Each level halves at best; requiring <= 100 tolerates the last step.
		t.Fatalf("coarsest = %d nodes, want near 50", h.Coarsest().NumNodes())
	}
	if h.Depth() == 0 {
		t.Fatal("no levels built")
	}
	// Graph weights preserved at every level.
	for i := 0; i <= h.Depth(); i++ {
		if h.GraphAt(i).NodeWT != g.TotalNodeWeight() {
			t.Fatalf("level %d lost node weight", i)
		}
		if err := h.GraphAt(i).ToGraph().Validate(); err != nil {
			t.Fatalf("level %d invalid: %v", i, err)
		}
	}
}

func TestBuildNoContractionNeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := pathGraph(5).ToCSR()
	h, err := BuildWS(new(arena.Workspace), g, Options{TargetSize: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 0 {
		t.Fatalf("depth = %d, want 0 (already small)", h.Depth())
	}
	if h.Coarsest() != g {
		t.Fatal("coarsest of trivial hierarchy should be the original")
	}
}

func TestBuildEdgelessGraphStops(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.New(500) // no edges: nothing contractible
	h, err := BuildWS(new(arena.Workspace), g.ToCSR(), Options{TargetSize: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h.Coarsest().NumNodes() != 500 {
		t.Fatal("edgeless graph should not contract")
	}
}

func TestProjectToFinestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, 200)
	h, err := BuildWS(new(arena.Workspace), g.ToCSR(), Options{TargetSize: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	nc := h.Coarsest().NumNodes()
	coarseParts := make([]int, nc)
	for i := range coarseParts {
		coarseParts[i] = i % 4
	}
	fine, err := h.ProjectTo(coarseParts, h.Depth(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(g, fine, 4); err != nil {
		t.Fatal(err)
	}
	// Cut of the projected partition equals the cut on the coarse graph:
	// contraction only hides intra-pair edges, which are never cut when
	// the pair lands in one part.
	coarsest := h.Coarsest().ToGraph()
	coarseCut := metrics.EdgeCut(coarsest, coarseParts)
	fineCut := metrics.EdgeCut(g, fine)
	if coarseCut != fineCut {
		t.Fatalf("coarse cut %d != projected fine cut %d", coarseCut, fineCut)
	}
	// Resources also match.
	cr := metrics.MaxResource(coarsest, coarseParts, 4)
	fr := metrics.MaxResource(g, fine, 4)
	if cr != fr {
		t.Fatalf("coarse maxRes %d != fine maxRes %d", cr, fr)
	}
}

func TestProjectToErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomConnected(rng, 100)
	h, err := BuildWS(new(arena.Workspace), g.ToCSR(), Options{TargetSize: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ProjectTo([]int{0}, 0, h.Depth()); err == nil {
		t.Fatal("projecting downward (fine->coarse) accepted")
	}
}

func TestBestMatchingPicksHighestHiddenWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnected(rng, 60)
	gc := g.ToCSR()
	m, h, _, _ := bestMatchingWS(new(arena.Workspace), gc, Options{}, rng)
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Must be at least as heavy as pure HEM (HEM is one of the entrants).
	hem := mustCompute(t, match.HeuristicHeavyEdge, g, nil)
	if m.MatchedWeight(gc) < hem.MatchedWeight(gc) {
		t.Fatalf("best-of-three %d lighter than HEM %d (heuristic %v)",
			m.MatchedWeight(gc), hem.MatchedWeight(gc), h)
	}
}

func TestBuildRestrictedHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnected(rng, 150)
	h, err := BuildWS(new(arena.Workspace), g.ToCSR(), Options{TargetSize: 30, Heuristics: []match.Heuristic{match.HeuristicHeavyEdge}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range h.Levels {
		if lvl.Heuristic != match.HeuristicHeavyEdge {
			t.Fatalf("level used %v, want heavy-edge only", lvl.Heuristic)
		}
	}
}

func TestPropertyHierarchyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 30+rng.Intn(120))
		h, err := BuildWS(new(arena.Workspace), g.ToCSR(), Options{TargetSize: 10 + rng.Intn(30)}, rng)
		if err != nil {
			return false
		}
		for i := 0; i <= h.Depth(); i++ {
			lg := h.GraphAt(i)
			if lg.ToGraph().Validate() != nil {
				return false
			}
			if lg.NodeWT != g.TotalNodeWeight() {
				return false
			}
			if i > 0 && lg.NumNodes() >= h.GraphAt(i-1).NumNodes() {
				return false // every level must strictly shrink
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyProjectionPreservesMetrics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 40+rng.Intn(80))
		h, err := BuildWS(new(arena.Workspace), g.ToCSR(), Options{TargetSize: 12}, rng)
		if err != nil {
			return false
		}
		k := 2 + rng.Intn(4)
		nc := h.Coarsest().NumNodes()
		parts := make([]int, nc)
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		fine, err := h.ProjectTo(parts, h.Depth(), 0)
		if err != nil {
			return false
		}
		coarsest := h.Coarsest().ToGraph()
		return metrics.EdgeCut(coarsest, parts) == metrics.EdgeCut(g, fine) &&
			metrics.MaxResource(coarsest, parts, k) == metrics.MaxResource(g, fine, k) &&
			metrics.MaxLocalBandwidth(coarsest, parts, k) == metrics.MaxLocalBandwidth(g, fine, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
