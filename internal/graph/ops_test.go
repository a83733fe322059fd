package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 1)
	comp, k := g.ConnectedComponents()
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("nodes 0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Fatal("nodes 3,4 should share a component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatal("node 5 should be isolated")
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestIsConnectedTrivial(t *testing.T) {
	if !New(0).IsConnected() {
		t.Fatal("empty graph should count as connected")
	}
	if !New(1).IsConnected() {
		t.Fatal("single node should count as connected")
	}
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	if !g.IsConnected() {
		t.Fatal("path should be connected")
	}
}

func TestQuotientBasic(t *testing.T) {
	// Square 0-1-2-3 with equal weights; blocks {0,1} and {2,3}.
	g := NewWithWeights([]int64{1, 2, 3, 4})
	g.MustAddEdge(0, 1, 5)  // intra block 0
	g.MustAddEdge(1, 2, 7)  // cross
	g.MustAddEdge(2, 3, 11) // intra block 1
	g.MustAddEdge(3, 0, 13) // cross
	q, err := g.Quotient([]int{0, 0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() != 2 || q.NumEdges() != 1 {
		t.Fatalf("quotient shape = %s", q)
	}
	if q.NodeWeight(0) != 3 || q.NodeWeight(1) != 7 {
		t.Fatalf("quotient node weights = %d,%d want 3,7", q.NodeWeight(0), q.NodeWeight(1))
	}
	if q.EdgeWeight(0, 1) != 20 {
		t.Fatalf("quotient edge weight = %d, want 20 (7+13)", q.EdgeWeight(0, 1))
	}
}

func TestQuotientErrors(t *testing.T) {
	g := New(3)
	if _, err := g.Quotient([]int{0, 1}, 2); err == nil {
		t.Fatal("short blocks accepted")
	}
	if _, err := g.Quotient([]int{0, 1, 5}, 2); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestPropertyQuotientPreservesTotals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(100))
		k := 1 + rng.Intn(n)
		blocks := make([]int, n)
		used := make(map[int]bool)
		for i := range blocks {
			blocks[i] = rng.Intn(k)
			used[blocks[i]] = true
		}
		// Densify block ids so every id in [0,k') is used.
		remap := make(map[int]int)
		next := 0
		for i := range blocks {
			if _, ok := remap[blocks[i]]; !ok {
				remap[blocks[i]] = next
				next++
			}
			blocks[i] = remap[blocks[i]]
		}
		q, err := g.Quotient(blocks, next)
		if err != nil {
			return false
		}
		if q.TotalNodeWeight() != g.TotalNodeWeight() {
			return false
		}
		// Edge weight of the quotient equals the total cut weight, which is
		// at most the total edge weight.
		if q.TotalEdgeWeight() > g.TotalEdgeWeight() {
			return false
		}
		return q.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
