package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refGraph is the fold's oracle: simple adjacency lists whose addEdge
// scans the row for the neighbour and either adds the weight to both
// halves or appends them, so rows keep first-encounter order. Its errors
// are Graph.AddEdge's and Graph.AddHyperEdge's.
type refGraph struct {
	nodeW         []int64
	adj           [][]refHalf
	edgeW, hyperW int64
	nets          [][]Node
	netW          []int64
}

type refHalf struct {
	to Node
	w  int64
}

func newRef(w []int64) *refGraph {
	return &refGraph{nodeW: slices.Clone(w), adj: make([][]refHalf, len(w))}
}

func (r *refGraph) addEdge(u, v Node, w int64) error {
	n := len(r.nodeW)
	if u == v {
		return fmt.Errorf("graph: self loop on node %d rejected", u)
	}
	if int(u) >= n || int(v) >= n || u < 0 || v < 0 {
		return fmt.Errorf("graph: edge {%d,%d} references missing node (n=%d)", u, v, n)
	}
	if w < 0 {
		return fmt.Errorf("graph: negative edge weight %d on {%d,%d}", w, u, v)
	}
	r.edgeW += w
	for i := range r.adj[u] {
		if r.adj[u][i].to == v {
			r.adj[u][i].w += w
			for j := range r.adj[v] {
				if r.adj[v][j].to == u {
					r.adj[v][j].w += w
				}
			}
			return nil
		}
	}
	r.adj[u] = append(r.adj[u], refHalf{v, w})
	r.adj[v] = append(r.adj[v], refHalf{u, w})
	return nil
}

func (r *refGraph) addNet(pins []Node, w int64) error {
	if len(pins) < 2 {
		return fmt.Errorf("graph: hyperedge needs >= 2 pins, got %d", len(pins))
	}
	if w < 0 {
		return fmt.Errorf("graph: negative hyperedge weight %d", w)
	}
	for i, p := range pins {
		if p < 0 || int(p) >= len(r.nodeW) {
			return fmt.Errorf("graph: hyperedge pin %d outside [0,%d)", p, len(r.nodeW))
		}
		if slices.Contains(pins[:i], p) {
			return fmt.Errorf("graph: duplicate pin %d in hyperedge", p)
		}
	}
	r.nets = append(r.nets, slices.Clone(pins))
	r.netW = append(r.netW, w)
	r.hyperW += w
	return nil
}

// sameAsRef reports the first difference between g's CSR and r: rows in
// order, weights, totals, and every net array, incidence included.
func sameAsRef(g *Graph, r *refGraph) error {
	c := g.ToCSR()
	n := len(r.nodeW)
	if g.NumNodes() != n || c.NumNodes() != n || !slices.Equal(c.NodeW, r.nodeW) {
		return fmt.Errorf("node weights %v, want %v", c.NodeW, r.nodeW)
	}
	var nodeWT int64
	arcs := 0
	for u := 0; u < n; u++ {
		nodeWT += r.nodeW[u]
		arcs += len(r.adj[u])
		nbrs, wts := c.Row(Node(u))
		if len(nbrs) != len(r.adj[u]) {
			return fmt.Errorf("row %d has %d entries, want %d", u, len(nbrs), len(r.adj[u]))
		}
		for i, h := range r.adj[u] {
			if nbrs[i] != h.to || wts[i] != h.w {
				return fmt.Errorf("row %d entry %d is (%d, %d), want (%d, %d)", u, i, nbrs[i], wts[i], h.to, h.w)
			}
		}
	}
	if g.NumEdges() != arcs/2 || len(c.Adj) != arcs || len(c.AdjW) != arcs {
		return fmt.Errorf("%d edges, want %d", g.NumEdges(), arcs/2)
	}
	if c.NodeWT != nodeWT || g.TotalNodeWeight() != nodeWT || c.EdgeWT != r.edgeW ||
		g.TotalEdgeWeight() != r.edgeW || c.HWT != r.hyperW || g.TotalHyperWeight() != r.hyperW {
		return fmt.Errorf("totals (%d, %d, %d), want (%d, %d, %d)", c.NodeWT, c.EdgeWT, c.HWT, nodeWT, r.edgeW, r.hyperW)
	}
	var xpins, xinc []int32
	var pins []Node
	inc := make([][]int32, n)
	for e, net := range r.nets {
		xpins = append(xpins, int32(len(pins)))
		pins = append(pins, net...)
		for _, p := range net {
			inc[p] = append(inc[p], int32(e))
		}
	}
	var incFlat []int32
	if len(r.nets) > 0 {
		xpins = append(xpins, int32(len(pins)))
		for u := 0; u < n; u++ {
			xinc = append(xinc, int32(len(incFlat)))
			incFlat = append(incFlat, inc[u]...)
		}
		xinc = append(xinc, int32(len(incFlat)))
	}
	if g.NumHyperEdges() != len(r.nets) || !slices.Equal(c.HXPins, xpins) || !slices.Equal(c.HPins, pins) ||
		!slices.Equal(c.HW, r.netW) || !slices.Equal(c.HXInc, xinc) || !slices.Equal(c.HInc, incFlat) {
		return fmt.Errorf("nets differ: %v %v %v %v %v, want %v %v %v %v %v",
			c.HXPins, c.HPins, c.HW, c.HXInc, c.HInc, xpins, pins, r.netW, xinc, incFlat)
	}
	return g.Validate()
}

// csrCopy is a deep copy of a CSR's contents.
func csrCopy(c *CSR) CSR {
	return CSR{XAdj: slices.Clone(c.XAdj), Adj: slices.Clone(c.Adj), AdjW: slices.Clone(c.AdjW),
		NodeW: slices.Clone(c.NodeW), EdgeWT: c.EdgeWT, NodeWT: c.NodeWT,
		HXPins: slices.Clone(c.HXPins), HPins: slices.Clone(c.HPins), HW: slices.Clone(c.HW),
		HXInc: slices.Clone(c.HXInc), HInc: slices.Clone(c.HInc), HWT: c.HWT}
}

func sameCSR(a, b *CSR) bool {
	return slices.Equal(a.XAdj, b.XAdj) && slices.Equal(a.Adj, b.Adj) && slices.Equal(a.AdjW, b.AdjW) &&
		slices.Equal(a.NodeW, b.NodeW) && a.EdgeWT == b.EdgeWT && a.NodeWT == b.NodeWT &&
		slices.Equal(a.HXPins, b.HXPins) && slices.Equal(a.HPins, b.HPins) && slices.Equal(a.HW, b.HW) &&
		slices.Equal(a.HXInc, b.HXInc) && slices.Equal(a.HInc, b.HInc) && a.HWT == b.HWT
}

// TestFoldMatchesAdjacencyLists drives a Graph and the reference through
// the same random operations — duplicate and reversed edges, zero
// weights, every AddEdge and AddHyperEdge error, SetNodeWeight after a
// read, nets — with reads at random points between them. At every read
// the graph must equal the reference, and every CSR an earlier read
// returned must still hold what it held then.
func TestFoldMatchesAdjacencyLists(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30)
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(rng.Intn(50))
		}
		g, r := NewWithWeights(w), newRef(w)
		if rng.Intn(4) == 0 {
			g = New(n)
			for i := range r.nodeW {
				r.nodeW[i] = 1
			}
		}
		type taken struct {
			c    *CSR
			want CSR
		}
		var held []taken
		read := func(step int) {
			if err := sameAsRef(g, r); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			c := g.ToCSR()
			held = append(held, taken{c, csrCopy(c)})
		}
		steps := 1 + rng.Intn(120)
		for step := 0; step < steps; step++ {
			node := func() Node { return Node(rng.Intn(n+2) - 1) } // -1 and n are missing nodes
			switch op := rng.Intn(20); {
			case op < 12:
				u, v := node(), node()
				if n > 1 && rng.Intn(4) > 0 {
					u, v = Node(rng.Intn(n)), Node(rng.Intn(n))
				}
				wt := int64(rng.Intn(9) - 1) // zero and negative weights too
				gerr, rerr := g.AddEdge(u, v, wt), r.addEdge(u, v, wt)
				if fmt.Sprint(gerr) != fmt.Sprint(rerr) {
					t.Fatalf("seed %d: AddEdge(%d, %d, %d) = %v, want %v", seed, u, v, wt, gerr, rerr)
				}
			case op < 14 && n > 0:
				u, wt := Node(rng.Intn(n)), int64(rng.Intn(70))
				g.SetNodeWeight(u, wt)
				r.nodeW[u] = wt
			case op < 16:
				pins := make([]Node, rng.Intn(5))
				for i := range pins {
					pins[i] = node()
				}
				wt := int64(rng.Intn(9) - 1)
				gerr, rerr := g.AddHyperEdge(pins, wt), r.addNet(pins, wt)
				if fmt.Sprint(gerr) != fmt.Sprint(rerr) {
					t.Fatalf("seed %d: AddHyperEdge(%v, %d) = %v, want %v", seed, pins, wt, gerr, rerr)
				}
			default:
				read(step)
			}
		}
		read(-1)
		for i, h := range held {
			if !sameCSR(h.c, &h.want) {
				t.Fatalf("seed %d: CSR of read %d changed after later mutations", seed, i)
			}
		}
	}
}

// TestCSRKeptAcrossMutation takes a CSR, mutates the graph every way it
// can be mutated, and checks that the CSR still holds its old contents
// while the graph reads the new ones.
func TestCSRKeptAcrossMutation(t *testing.T) {
	g := NewWithWeights([]int64{4, 5, 6, 7})
	g.MustAddEdge(0, 1, 2)
	g.MustAddHyperEdge([]Node{0, 1, 2}, 3)
	c := g.ToCSR()
	want := csrCopy(c)
	g.MustAddEdge(1, 0, 5)
	g.MustAddEdge(2, 3, 1)
	g.SetNodeWeight(1, 50)
	g.MustAddHyperEdge([]Node{3, 0}, 9)
	if !sameCSR(c, &want) {
		t.Fatal("a CSR changed after the graph was mutated")
	}
	if g.EdgeWeight(0, 1) != 7 || g.NumEdges() != 2 || g.NodeWeight(1) != 50 || g.NumHyperEdges() != 2 {
		t.Fatalf("graph reads stale state: w01=%d m=%d w1=%d nets=%d",
			g.EdgeWeight(0, 1), g.NumEdges(), g.NodeWeight(1), g.NumHyperEdges())
	}
	if d := g.ToCSR(); d == c || d.NodeWT != 67 {
		t.Fatalf("graph kept its old CSR (node total %d)", d.NodeWT)
	}
}

// refFromEdges replays edges (node weights w, then AddEdge in order) on
// the reference.
func refFromEdges(t *testing.T, w []int64, edges []Edge) *refGraph {
	t.Helper()
	r := newRef(w)
	for _, e := range edges {
		if err := r.addEdge(e.U, e.V, e.Weight); err != nil {
			t.Fatalf("reference rejects edge %v accepted by the parser: %v", e, err)
		}
	}
	return r
}
