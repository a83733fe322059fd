package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestToCSRShape(t *testing.T) {
	g := buildTriangle(t)
	c := g.ToCSR()
	if c.NumNodes() != 3 || c.NumEdges() != 3 {
		t.Fatalf("CSR shape: n=%d m=%d", c.NumNodes(), c.NumEdges())
	}
	if c.NodeWT != g.TotalNodeWeight() || c.EdgeWT != g.TotalEdgeWeight() {
		t.Fatal("CSR totals mismatch")
	}
	nbrs, ws := c.Row(1)
	if len(nbrs) != 2 || len(ws) != 2 {
		t.Fatalf("Row(1) = %v %v", nbrs, ws)
	}
	if c.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d", c.Degree(1))
	}
	if c.WeightedDegree(1) != g.WeightedDegree(1) {
		t.Fatal("CSR WeightedDegree mismatch")
	}
}

// sameRows reports whether a and b have identical adjacency rows, order
// included.
func sameRows(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		na, wa := a.Row(Node(u))
		nb, wb := b.Row(Node(u))
		if !slices.Equal(na, nb) || !slices.Equal(wa, wb) {
			return false
		}
	}
	return true
}

func TestCSRRoundTrip(t *testing.T) {
	g := buildTriangle(t)
	back := g.ToCSR().ToGraph()
	if !graphsEqual(g, back) {
		t.Fatal("CSR round trip lost data")
	}
	if !sameRows(g, back) {
		t.Fatal("CSR round trip reordered adjacency rows")
	}
	if back.TotalEdgeWeight() != g.TotalEdgeWeight() {
		t.Fatal("CSR round trip lost the edge total")
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCSREmptyGraph(t *testing.T) {
	g := New(0)
	c := g.ToCSR()
	if c.NumNodes() != 0 || c.NumEdges() != 0 {
		t.Fatal("empty CSR should be empty")
	}
	if c.ToGraph().NumNodes() != 0 {
		t.Fatal("empty CSR round trip")
	}
}

func TestPropertyCSRRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(50), rng.Intn(120))
		back := g.ToCSR().ToGraph()
		return graphsEqual(g, back) && sameRows(g, back) && back.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCSRDegreesMatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(40), rng.Intn(80))
		c := g.ToCSR()
		for u := 0; u < g.NumNodes(); u++ {
			if c.Degree(Node(u)) != g.Degree(Node(u)) {
				return false
			}
			if c.WeightedDegree(Node(u)) != g.WeightedDegree(Node(u)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := NewWithWeights([]int64{1, 2, 3, 4})
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 2, 20)
	g.MustAddEdge(2, 3, 30)
	g.MustAddEdge(0, 3, 40)
	local := make([]int32, 4)
	sub := g.ToCSR().InducedSubgraph([]Node{3, 1, 2}, local)
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("sub has %d nodes and %d edges, want 3 and 2 ({1,2},{2,3})", sub.NumNodes(), sub.NumEdges())
	}
	// Local ids: 3 -> 0, 1 -> 1, 2 -> 2.
	if !slices.Equal(sub.NodeW, []int64{4, 2, 3}) || sub.NodeWT != 9 || sub.EdgeWT != 50 {
		t.Fatalf("weights %v, totals %d/%d, want [4 2 3], 9/50", sub.NodeW, sub.NodeWT, sub.EdgeWT)
	}
	adj, wts := sub.Row(2)
	if !slices.Equal(adj, []Node{0, 1}) || !slices.Equal(wts, []int64{30, 20}) {
		t.Fatalf("row 2 = %v %v, want [0 1] [30 20]", adj, wts)
	}
	if err := sub.ToGraph().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if slices.ContainsFunc(local, func(x int32) bool { return x != 0 }) {
		t.Fatalf("local scratch left dirty: %v", local)
	}
}

// TestPropertyCSRInducedSubgraphMatchesAddEdge checks the induced CSR of
// random node subsets, in random order, against the graph built by
// adding each induced edge {i, j}, i < j, row by row in the parent's row
// order and reading its CSR: the same rows in the same order, the same
// weights and the same totals.
func TestPropertyCSRInducedSubgraphMatchesAddEdge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := randomGraph(rng, n+1, rng.Intn(4*n))
		if rng.Intn(3) == 0 {
			g.MustAddEdge(Node(rng.Intn(n)), Node(n), 0) // a zero-weight edge
		}
		n = g.NumNodes()
		c := g.ToCSR()
		perm := rng.Perm(n)
		nodes := make([]Node, rng.Intn(n+1))
		for i := range nodes {
			nodes[i] = Node(perm[i])
		}
		ids := map[Node]Node{}
		w := make([]int64, len(nodes))
		for i, u := range nodes {
			ids[u] = Node(i)
			w[i] = c.NodeW[u]
		}
		want := NewWithWeights(w)
		for i, u := range nodes {
			adj, wts := c.Row(u)
			for k, v := range adj {
				if j, ok := ids[v]; ok && Node(i) < j {
					want.MustAddEdge(Node(i), j, wts[k])
				}
			}
		}
		wc := want.ToCSR()
		local := make([]int32, n)
		got := c.InducedSubgraph(nodes, local)
		return slices.Equal(got.XAdj, wc.XAdj) && slices.Equal(got.Adj, wc.Adj) &&
			slices.Equal(got.AdjW, wc.AdjW) && slices.Equal(got.NodeW, wc.NodeW) &&
			got.EdgeWT == wc.EdgeWT && got.NodeWT == wc.NodeWT &&
			!slices.ContainsFunc(local, func(x int32) bool { return x != 0 })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSOrderCoversAllNodes(t *testing.T) {
	g := New(6)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(1, 0, 1)
	g.MustAddEdge(0, 5, 1)
	g.MustAddEdge(3, 4, 1)
	// Row order from 1, then 3's component, since 0..2 are reached.
	if got := g.ToCSR().BFSOrder(1); !slices.Equal(got, []Node{1, 2, 0, 5, 3, 4}) {
		t.Fatalf("BFS order %v, want [1 2 0 5 3 4]", got)
	}
	if got := New(0).ToCSR().BFSOrder(0); len(got) != 0 {
		t.Fatalf("empty graph BFS order %v", got)
	}
}
