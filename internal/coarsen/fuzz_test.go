package coarsen

import (
	"fmt"
	"math/rand"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
)

// decodeContraction reads a graph and a valid matching from fuzz input.
// Byte 0 sets the node count, the next n bytes the node weights, and
// every following 4-byte group one edge (u, v, weight, flag). Parallel
// edges fold and self loops are dropped, as Graph.AddEdge does. An edge
// whose flag has its low bit set is matched when both endpoints are still
// free, so the matching is symmetric and only pairs adjacent nodes.
func decodeContraction(data []byte) (*graph.Graph, match.Matching) {
	if len(data) == 0 {
		return graph.New(0), match.NewMatching(0)
	}
	n := 1 + int(data[0])%48
	data = data[1:]
	w := make([]int64, n)
	for i := range w {
		if i < len(data) {
			w[i] = int64(data[i])
		}
	}
	if len(data) > n {
		data = data[n:]
	} else {
		data = nil
	}
	g := graph.NewWithWeights(w)
	m := match.NewMatching(n)
	for ; len(data) >= 4; data = data[4:] {
		u, v := graph.Node(int(data[0])%n), graph.Node(int(data[1])%n)
		if u == v {
			continue
		}
		g.MustAddEdge(u, v, int64(data[2]))
		if data[3]&1 == 1 && m[u] == match.Unmatched && m[v] == match.Unmatched {
			m[u], m[v] = v, u
		}
	}
	return g, m
}

// referenceContract contracts g under m with sequential Graph.AddEdge
// calls over the fine adjacency rows, numbering coarse nodes at the lower
// endpoint's visit — the semantics ContractWS must reproduce exactly.
func referenceContract(g *graph.Graph, m match.Matching) (*graph.CSR, []graph.Node) {
	n := g.NumNodes()
	f2c := make([]graph.Node, n)
	for i := range f2c {
		f2c[i] = -1
	}
	next := graph.Node(0)
	for u := 0; u < n; u++ {
		if f2c[u] != -1 {
			continue
		}
		if v := m[u]; v != match.Unmatched {
			f2c[v] = next
		}
		f2c[u] = next
		next++
	}
	w := make([]int64, next)
	for u := 0; u < n; u++ {
		w[f2c[u]] += g.NodeWeight(graph.Node(u))
	}
	ref := graph.NewWithWeights(w)
	for u := 0; u < n; u++ {
		nbrs, wts := g.Row(graph.Node(u))
		for i, v := range nbrs {
			if graph.Node(u) < v && f2c[u] != f2c[v] {
				ref.MustAddEdge(f2c[u], f2c[v], wts[i])
			}
		}
	}
	return ref.ToCSR(), f2c
}

// FuzzContract checks ContractWS against the sequential-AddEdge
// reference (the fine→coarse map, every coarse row in order, and the
// totals) and the weight accounting: node weight is conserved, and edge
// weight is conserved minus the weight hidden inside matched pairs.
func FuzzContract(f *testing.F) {
	f.Add([]byte{5, 1, 2, 3, 4, 5, 0, 1, 7, 1, 1, 2, 3, 0, 2, 3, 9, 1, 0, 2, 4, 0, 3, 4, 1, 1})
	f.Add([]byte{3, 10, 20, 30, 0, 1, 5, 1, 1, 2, 7, 0, 0, 2, 9, 0, 2, 1, 1, 0})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, m := decodeContraction(data)
		fine := g.ToCSR()
		lvl, err := ContractWS(new(arena.Workspace), fine, m)
		if err != nil {
			t.Fatalf("valid matching rejected: %v", err)
		}
		got := lvl.Coarse
		want, f2c := referenceContract(g, m)
		for u, c := range f2c {
			if lvl.FineToCoarse[u] != c {
				t.Fatalf("fine node %d maps to %d, reference %d", u, lvl.FineToCoarse[u], c)
			}
		}
		sameCSR(t, "", got, want)
		// Conservation, summed from the coarse arrays themselves.
		var nodeW, halfW int64
		for _, x := range got.NodeW {
			nodeW += x
		}
		for _, x := range got.AdjW {
			halfW += x
		}
		if nodeW != g.TotalNodeWeight() {
			t.Fatalf("node weight %d, fine %d", nodeW, g.TotalNodeWeight())
		}
		if hidden := m.MatchedWeight(fine); halfW != 2*(g.TotalEdgeWeight()-hidden) || got.EdgeWT != halfW/2 {
			t.Fatalf("edge weight %d (rows %d/2), want fine %d minus hidden %d",
				got.EdgeWT, halfW, g.TotalEdgeWeight(), hidden)
		}
	})
}

// sameCSR fails t, naming where, unless got and want have the same
// shape, totals, node weights and rows, entry order included.
func sameCSR(t *testing.T, where string, got, want *graph.CSR) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() ||
		got.NodeWT != want.NodeWT || got.EdgeWT != want.EdgeWT {
		t.Fatalf("%scoarse shape n=%d m=%d nw=%d ew=%d, reference n=%d m=%d nw=%d ew=%d", where,
			got.NumNodes(), got.NumEdges(), got.NodeWT, got.EdgeWT,
			want.NumNodes(), want.NumEdges(), want.NodeWT, want.EdgeWT)
	}
	for u := 0; u < got.NumNodes(); u++ {
		if got.NodeW[u] != want.NodeW[u] {
			t.Fatalf("%scoarse node %d weight %d, reference %d", where, u, got.NodeW[u], want.NodeW[u])
		}
		ga, gw := got.Row(graph.Node(u))
		ra, rw := want.Row(graph.Node(u))
		if len(ga) != len(ra) {
			t.Fatalf("%scoarse node %d degree %d, reference %d", where, u, len(ga), len(ra))
		}
		for i := range ga {
			if ga[i] != ra[i] || gw[i] != rw[i] {
				t.Fatalf("%scoarse node %d entry %d {%d %d}, reference {%d %d}", where,
					u, i, ga[i], gw[i], ra[i], rw[i])
			}
		}
	}
}

// TestContractDeepLevelsMatchReference contracts 200 seeded graphs level
// after level down to at most 50 nodes and checks every level against
// referenceContract. The deep levels have dense coarse rows in which most
// raw entries fold into an earlier one, which FuzzContract's graphs of at
// most 48 nodes never reach. Zero-weight edges keep a neighbour in a row
// with nothing added to it.
func TestContractDeepLevelsMatchReference(t *testing.T) {
	heuristics := match.All()
	ws := new(arena.Workspace)
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(4801)
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(1 + rng.Intn(30))
		}
		ref := graph.NewWithWeights(w)
		for i := 0; i < 3*n; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				ref.MustAddEdge(graph.Node(u), graph.Node(v), int64(rng.Intn(10)))
			}
		}
		cur := ref.ToCSR()
		for level := 0; cur.NumNodes() > 50; level++ {
			h := heuristics[rng.Intn(len(heuristics))]
			m, err := match.ComputeWS(ws, h, cur, 0, rng)
			if err != nil {
				t.Fatal(err)
			}
			if m.Pairs() == 0 {
				break
			}
			lvl, err := ContractWS(ws, cur, m)
			if err != nil {
				t.Fatalf("seed %d level %d: %v", seed, level, err)
			}
			want, f2c := referenceContract(ref, m)
			for u, c := range f2c {
				if lvl.FineToCoarse[u] != c {
					t.Fatalf("seed %d level %d: fine node %d maps to %d, reference %d",
						seed, level, u, lvl.FineToCoarse[u], c)
				}
			}
			sameCSR(t, fmt.Sprintf("seed %d level %d: ", seed, level), lvl.Coarse, want)
			ws.Nodes.Put(m)
			ref, cur = want.ToGraph(), lvl.Coarse
		}
	}
}
