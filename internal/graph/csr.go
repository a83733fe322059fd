package graph

// CSR is a compressed-sparse-row graph: a Graph's snapshot (ToCSR,
// SnapshotInto) or a contracted hierarchy level, which coarsen.ContractWS
// builds in three passes (carve row capacity, append every crossing
// half-edge, fold each row's duplicates in place with a dense marker).
// The partitioning hot loops (matching, FM refinement) iterate adjacency
// billions of times on large instances; CSR gives contiguous memory and
// no per-node slice headers. A CSR is immutable while it is read: mutate
// the Graph and re-snapshot. Only SnapshotInto rewrites one, for a
// snapshot store that recycles storage between solves.
type CSR struct {
	XAdj   []int32 // offsets into Adj/AdjW, length NumNodes+1
	Adj    []Node  // neighbor ids, length 2*NumEdges
	AdjW   []int64 // edge weights parallel to Adj
	NodeW  []int64 // node weights
	EdgeWT int64   // total edge weight
	NodeWT int64   // total node weight

	// Hyperedge snapshot (empty for plain graphs; see hyper.go). HXPins
	// offsets into HPins per hyperedge (pin 0 = writer), HW carries the
	// per-net weights, and HXInc/HInc is the transposed node->hyperedge
	// incidence the incremental partition state walks on each move.
	HXPins []int32
	HPins  []Node
	HW     []int64
	HXInc  []int32
	HInc   []int32
	HWT    int64 // total hyperedge weight
}

// ToCSR snapshots the graph into a freshly allocated CSR (see
// SnapshotInto).
func (g *Graph) ToCSR() *CSR {
	c := &CSR{}
	g.SnapshotInto(c)
	return c
}

// SnapshotInto rebuilds c in place as the graph's CSR snapshot. Each of
// c's arrays keeps its storage when it is large enough and is otherwise
// replaced by one of exactly the needed size, so a CSR snapshotted again
// and again (arena.Snapshot) stops allocating once it has held the
// largest graph. Neighbor order within a row matches the Graph's
// insertion order, which keeps randomized algorithms deterministic for a
// fixed build sequence. Anything still reading c's old contents sees
// them overwritten.
func (g *Graph) SnapshotInto(c *CSR) {
	n := g.NumNodes()
	m2 := 2 * g.NumEdges()
	c.XAdj = resize(c.XAdj, n+1)
	c.Adj = resize(c.Adj, m2)
	c.AdjW = resize(c.AdjW, m2)
	c.NodeW = resize(c.NodeW, n)
	copy(c.NodeW, g.nodeWeights)
	c.EdgeWT = g.totalEdgeW
	c.NodeWT = g.totalNodeW
	var at int32
	for u := 0; u < n; u++ {
		c.XAdj[u] = at
		for _, h := range g.adj[u] {
			c.Adj[at], c.AdjW[at] = h.To, h.Weight
			at++
		}
	}
	c.XAdj[n] = at
	g.fillHyperCSR(c)
}

// resize returns s at length n: s's own storage when its capacity
// suffices, else a new array of exactly n elements. Reused elements keep
// their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NumNodes reports the number of nodes.
func (c *CSR) NumNodes() int { return len(c.XAdj) - 1 }

// NumEdges reports the number of undirected edges.
func (c *CSR) NumEdges() int { return len(c.Adj) / 2 }

// Row returns the neighbor ids and weights of node u as parallel slices.
// The slices alias the CSR arrays and must not be mutated.
func (c *CSR) Row(u Node) ([]Node, []int64) {
	lo, hi := c.XAdj[u], c.XAdj[u+1]
	return c.Adj[lo:hi], c.AdjW[lo:hi]
}

// Degree returns the number of neighbors of u.
func (c *CSR) Degree(u Node) int { return int(c.XAdj[u+1] - c.XAdj[u]) }

// WeightedDegree returns the total incident edge weight of u.
func (c *CSR) WeightedDegree(u Node) int64 {
	var s int64
	lo, hi := c.XAdj[u], c.XAdj[u+1]
	for i := lo; i < hi; i++ {
		s += c.AdjW[i]
	}
	return s
}

// ToGraph reconstructs an adjacency-list Graph from the CSR. Rows are
// copied verbatim, so every adjacency list keeps the CSR's row order.
func (c *CSR) ToGraph() *Graph {
	g := NewWithWeights(c.NodeW)
	halves := make([]Half, len(c.Adj))
	for i, v := range c.Adj {
		halves[i] = Half{To: v, Weight: c.AdjW[i]}
	}
	for u := range g.adj {
		lo, hi := c.XAdj[u], c.XAdj[u+1]
		g.adj[u] = halves[lo:hi:hi]
	}
	g.numEdges = c.NumEdges()
	g.totalEdgeW = c.EdgeWT
	for e := 0; e < c.NumHyperEdges(); e++ {
		g.MustAddHyperEdge(c.HyperPins(int32(e)), c.HW[e])
	}
	return g
}

// InducedSubgraph returns the CSR induced by nodes: node i of the result
// is nodes[i], and an edge survives when both its ends are listed. Row i
// lists its lower-id neighbors in ascending id order, then its higher
// ones in c's row order. Those are the rows a Graph snapshot gives when
// each edge {i, j}, i < j, is added to it for i ascending and, within
// one i, in c's row order. local is scratch with one entry per node of
// c; it must be all zero and is left all zero. Hyperedges are not
// carried over.
func (c *CSR) InducedSubgraph(nodes []Node, local []int32) *CSR {
	m := len(nodes)
	sub := &CSR{XAdj: make([]int32, m+1), NodeW: make([]int64, m)}
	for i, u := range nodes {
		local[u] = int32(i + 1)
		sub.NodeW[i] = c.NodeW[u]
		sub.NodeWT += c.NodeW[u]
	}
	for i, u := range nodes {
		adj, _ := c.Row(u)
		for _, v := range adj {
			if local[v] != 0 {
				sub.XAdj[i+1]++
			}
		}
	}
	for i := 1; i <= m; i++ {
		sub.XAdj[i] += sub.XAdj[i-1]
	}
	sub.Adj = make([]Node, sub.XAdj[m])
	sub.AdjW = make([]int64, sub.XAdj[m])
	// XAdj[i] serves as row i's fill cursor, which leaves it at row i's
	// end; the shift below restores the row starts.
	for i, u := range nodes {
		adj, wts := c.Row(u)
		for k, v := range adj {
			j := local[v] - 1
			if j <= int32(i) {
				continue // not listed, or filled in from row j already
			}
			sub.Adj[sub.XAdj[i]], sub.AdjW[sub.XAdj[i]] = Node(j), wts[k]
			sub.XAdj[i]++
			sub.Adj[sub.XAdj[j]], sub.AdjW[sub.XAdj[j]] = Node(i), wts[k]
			sub.XAdj[j]++
			sub.EdgeWT += wts[k]
		}
	}
	copy(sub.XAdj[1:], sub.XAdj[:m])
	sub.XAdj[0] = 0
	for _, u := range nodes {
		local[u] = 0
	}
	return sub
}

// BFSOrder returns the nodes in breadth-first order from start, each
// row walked in order, then every unreached component from its lowest
// node on.
func (c *CSR) BFSOrder(start Node) []Node {
	n := c.NumNodes()
	order := make([]Node, 0, n)
	if n == 0 {
		return order
	}
	visited := make([]bool, n)
	visit := func(u Node) {
		visited[u] = true
		order = append(order, u)
	}
	visit(start)
	next := 0 // no node below next is unvisited
	for head := 0; head < n; head++ {
		if head == len(order) {
			for visited[next] {
				next++
			}
			visit(Node(next))
		}
		adj, _ := c.Row(order[head])
		for _, v := range adj {
			if !visited[v] {
				visit(v)
			}
		}
	}
	return order
}
