package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := NewWithWeights([]int64{10, 20, 30})
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 7)
	g.MustAddEdge(0, 2, 9)
	return g
}

func TestNewGraphDefaults(t *testing.T) {
	g := New(4)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	if g.TotalNodeWeight() != 4 {
		t.Fatalf("TotalNodeWeight = %d, want 4 (unit weights)", g.TotalNodeWeight())
	}
	for u := 0; u < 4; u++ {
		if g.NodeWeight(Node(u)) != 1 {
			t.Fatalf("node %d weight = %d, want 1", u, g.NodeWeight(Node(u)))
		}
	}
}

func TestAddEdgeAndQueries(t *testing.T) {
	g := buildTriangle(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} missing in one direction")
	}
	if g.EdgeWeight(1, 2) != 7 {
		t.Fatalf("EdgeWeight(1,2) = %d, want 7", g.EdgeWeight(1, 2))
	}
	if g.EdgeWeight(0, 3) != 0 {
		t.Fatalf("EdgeWeight of absent edge = %d, want 0", g.EdgeWeight(0, 3))
	}
	if g.TotalEdgeWeight() != 21 {
		t.Fatalf("TotalEdgeWeight = %d, want 21", g.TotalEdgeWeight())
	}
	if g.WeightedDegree(1) != 12 {
		t.Fatalf("WeightedDegree(1) = %d, want 12", g.WeightedDegree(1))
	}
	if g.Degree(2) != 2 {
		t.Fatalf("Degree(2) = %d, want 2", g.Degree(2))
	}
}

func TestAddEdgeAccumulatesParallel(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 3)
	g.MustAddEdge(1, 0, 4) // same undirected edge, reversed
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (parallel edges fold)", g.NumEdges())
	}
	if g.EdgeWeight(0, 1) != 7 {
		t.Fatalf("folded weight = %d, want 7", g.EdgeWeight(0, 1))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after fold: %v", err)
	}
}

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(1, 1, 1); err == nil {
		t.Fatal("self loop accepted, want error")
	}
}

func TestAddEdgeRejectsOutOfRange(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Fatal("dangling edge accepted, want error")
	}
	if err := g.AddEdge(-1, 0, 1); err == nil {
		t.Fatal("negative node accepted, want error")
	}
}

func TestAddEdgeRejectsNegativeWeight(t *testing.T) {
	g := New(2)
	if err := g.AddEdge(0, 1, -4); err == nil {
		t.Fatal("negative weight accepted, want error")
	}
}

func TestNewWithWeightsTotals(t *testing.T) {
	w := []int64{1, 42}
	g := NewWithWeights(w)
	w[1] = 7 // the graph keeps its own copy
	if g.NumNodes() != 2 || g.NodeWeight(1) != 42 {
		t.Fatalf("n = %d, node 1 weight = %d, want 2 and 42", g.NumNodes(), g.NodeWeight(1))
	}
	if g.TotalNodeWeight() != 43 {
		t.Fatalf("TotalNodeWeight = %d, want 43", g.TotalNodeWeight())
	}
}

func TestSetNodeWeightUpdatesTotal(t *testing.T) {
	g := buildTriangle(t)
	g.SetNodeWeight(0, 100)
	if g.NodeWeight(0) != 100 {
		t.Fatalf("weight = %d, want 100", g.NodeWeight(0))
	}
	if g.TotalNodeWeight() != 150 {
		t.Fatalf("TotalNodeWeight = %d, want 150", g.TotalNodeWeight())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNames(t *testing.T) {
	g := New(3)
	if g.Name(1) != "" {
		t.Fatalf("unset name = %q, want empty", g.Name(1))
	}
	g.SetName(1, "P1")
	if g.Name(1) != "P1" {
		t.Fatalf("name = %q, want P1", g.Name(1))
	}
	if g.Name(2) != "" {
		t.Fatalf("name of node 2 = %q, want empty", g.Name(2))
	}
}

func TestEdgesCanonicalSorted(t *testing.T) {
	g := New(4)
	g.MustAddEdge(3, 1, 2)
	g.MustAddEdge(2, 0, 1)
	g.MustAddEdge(1, 0, 5)
	edges := g.Edges()
	want := []Edge{{0, 1, 5}, {0, 2, 1}, {1, 3, 2}}
	if len(edges) != len(want) {
		t.Fatalf("got %d edges, want %d", len(edges), len(want))
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edge[%d] = %+v, want %+v", i, edges[i], want[i])
		}
	}
}

func TestEdgeNormalize(t *testing.T) {
	e := Edge{U: 5, V: 2, Weight: 9}.Normalize()
	if e.U != 2 || e.V != 5 || e.Weight != 9 {
		t.Fatalf("Normalize = %+v", e)
	}
	e2 := Edge{U: 1, V: 3, Weight: 4}.Normalize()
	if e2.U != 1 || e2.V != 3 {
		t.Fatalf("Normalize changed already-canonical edge: %+v", e2)
	}
}

func TestMaxNodeWeight(t *testing.T) {
	g := NewWithWeights([]int64{3, 9, 9, 1})
	if g.MaxNodeWeight() != 9 {
		t.Fatalf("MaxNodeWeight = %d, want 9", g.MaxNodeWeight())
	}
}

func TestStringNonEmpty(t *testing.T) {
	if New(1).String() == "" {
		t.Fatal("String() empty")
	}
}

// randomGraph builds a random simple weighted graph for property tests.
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(50))
	}
	g := NewWithWeights(w)
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		g.MustAddEdge(Node(u), Node(v), int64(1+rng.Intn(20)))
	}
	return g
}

func TestPropertyValidateRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		m := rng.Intn(3 * n)
		g := randomGraph(rng, n, m)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEdgesRoundTrip rebuilds each graph from its own Edges and
// demands the same edge list back.
func TestPropertyEdgesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(40), rng.Intn(80))
		c := NewWithWeights(g.NodeWeights())
		for _, e := range g.Edges() {
			c.MustAddEdge(e.U, e.V, e.Weight)
		}
		ge, ce := g.Edges(), c.Edges()
		if len(ge) != len(ce) {
			return false
		}
		for i := range ge {
			if ge[i] != ce[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWeightedDegreeSumsToTwiceTotal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(40), rng.Intn(100))
		var sum int64
		for u := 0; u < g.NumNodes(); u++ {
			sum += g.WeightedDegree(Node(u))
		}
		return sum == 2*g.TotalEdgeWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
