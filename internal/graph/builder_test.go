package graph

import (
	"math/rand"
	"testing"
)

// TestBuilderMatchesAddEdge checks that a Builder-built CSR is
// indistinguishable from the snapshot of a graph built with sequential
// AddEdge calls: identical rows (order included) and totals.
func TestBuilderMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(1 + rng.Intn(20))
		}
		type edge struct {
			u, v Node
			w    int64
		}
		var edges []edge
		degCap := make([]int32, n)
		for i := 0; i < 6*n; i++ {
			u, v := Node(rng.Intn(n)), Node(rng.Intn(n))
			if u != v {
				edges = append(edges, edge{u, v, int64(1 + rng.Intn(9))})
				degCap[u]++
				degCap[v]++
			}
		}
		ref := NewWithWeights(w)
		b := NewBuilderCap(append([]int64(nil), w...), degCap)
		for _, e := range edges {
			if err := ref.AddEdge(e.u, e.v, e.w); err != nil {
				t.Fatal(err)
			}
			if err := b.AddEdge(e.u, e.v, e.w); err != nil {
				t.Fatal(err)
			}
		}
		got, want := b.CSR(), ref.ToCSR()
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() ||
			got.EdgeWT != want.EdgeWT || got.NodeWT != want.NodeWT {
			t.Fatalf("totals differ: n=%d m=%d ew=%d nw=%d vs n=%d m=%d ew=%d nw=%d",
				got.NumNodes(), got.NumEdges(), got.EdgeWT, got.NodeWT,
				want.NumNodes(), want.NumEdges(), want.EdgeWT, want.NodeWT)
		}
		for u := 0; u < n; u++ {
			if got.NodeW[u] != want.NodeW[u] {
				t.Fatalf("node %d weight %d vs %d", u, got.NodeW[u], want.NodeW[u])
			}
			ga, gw := got.Row(Node(u))
			ra, rw := want.Row(Node(u))
			if len(ga) != len(ra) {
				t.Fatalf("node %d: degree %d vs %d", u, len(ga), len(ra))
			}
			for i := range ga {
				if ga[i] != ra[i] || gw[i] != rw[i] {
					t.Fatalf("node %d row %d: {%d %d} vs {%d %d} (order must match AddEdge)",
						u, i, ga[i], gw[i], ra[i], rw[i])
				}
			}
		}
		if err := got.ToGraph().Validate(); err != nil {
			t.Fatalf("built CSR invalid: %v", err)
		}
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilderCap([]int64{1, 1, 1}, []int32{1, 2, 1})
	if err := b.AddEdge(0, 0, 1); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := b.AddEdge(0, 5, 1); err == nil {
		t.Fatal("dangling endpoint accepted")
	}
	if err := b.AddEdge(0, 1, -2); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0, 3); err != nil {
		t.Fatalf("duplicate edge within the bound rejected: %v", err)
	}
	if err := b.AddEdge(0, 2, 1); err == nil {
		t.Fatal("edge past node 0's degree bound accepted")
	}
	if c := b.CSR(); c.NumEdges() != 1 || c.EdgeWT != 5 {
		t.Fatalf("built m=%d ew=%d, want 1 edge of weight 5", c.NumEdges(), c.EdgeWT)
	}
}
