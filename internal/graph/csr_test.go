package graph

import (
	"math/rand"
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
		ra, rb := a.Neighbors(Node(u)), b.Neighbors(Node(u))
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
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
