package graph

// CSR is a compressed-sparse-row graph: a Graph's own storage (ToCSR) or
// a contracted hierarchy level. Both are built the same way: carve each
// row's capacity, append every half-edge at its row's fill cursor
// (PushEdge), and fold each row's duplicates in place (FoldRows). The
// partitioning hot loops (matching, FM refinement) iterate adjacency
// billions of times on large instances; CSR gives contiguous memory and
// no per-node slice headers. A CSR never changes once built: a Graph's
// next fold builds new arrays.
type CSR struct {
	XAdj   []int32 // offsets into Adj/AdjW, length NumNodes+1
	Adj    []Node  // neighbor ids, length 2*NumEdges
	AdjW   []int64 // edge weights parallel to Adj
	NodeW  []int64 // node weights
	EdgeWT int64   // total edge weight
	NodeWT int64   // total node weight

	// Hyperedges (empty for plain graphs; see hyper.go). HXPins offsets
	// into HPins per hyperedge (pin 0 = writer), HW carries the per-net
	// weights, and HXInc/HInc is the transposed node->hyperedge incidence
	// the incremental partition state walks on each move.
	HXPins []int32
	HPins  []Node
	HW     []int64
	HXInc  []int32
	HInc   []int32
	HWT    int64 // total hyperedge weight
}

// PushEdge appends the two halves of edge {u, v}: (v, w) at row u's fill
// cursor fill[u] and (u, w) at fill[v], advancing both. The rows' carved
// capacity must have room.
func (c *CSR) PushEdge(fill []int32, u, v Node, w int64) {
	c.Adj[fill[u]], c.AdjW[fill[u]] = v, w
	fill[u]++
	c.Adj[fill[v]], c.AdjW[fill[v]] = u, w
	fill[v]++
}

// FoldRows folds the raw rows PushEdge filled, in place: row u's raw
// entries are Adj[XAdj[u]:fill[u]]. Each row keeps a neighbour's first
// occurrence and adds later weights into it, the rows are compacted to
// the front, and XAdj, Adj and AdjW are rewritten to the folded rows.
// Folding raw rows that list the halves of a sequence of edges in input
// order gives the rows sequential AddEdge calls on adjacency lists would:
// the same first-encounter order, the same summed weights (DESIGN.md
// §5c). mark is scratch with one entry per node and must be all zero; it
// is left dirty.
func (c *CSR) FoldRows(fill, mark []int32) {
	// mark[d] is one past the compacted slot where d was last kept, so it
	// names an entry of the current row only when it exceeds the row's
	// compacted start: the marker is never cleared. The compacted cursor
	// never passes the raw one, so the fold is in place.
	n := len(fill)
	var out int32
	for u := 0; u < n; u++ {
		start := out
		for i := c.XAdj[u]; i < fill[u]; i++ {
			d, w := c.Adj[i], c.AdjW[i]
			if p := mark[d]; p > start {
				c.AdjW[p-1] += w
				continue
			}
			c.Adj[out], c.AdjW[out] = d, w
			out++
			mark[d] = out
		}
		c.XAdj[u] = start
	}
	c.XAdj[n] = out
	c.Adj, c.AdjW = c.Adj[:out], c.AdjW[:out]
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

// ToGraph returns a Graph whose storage is c itself, without a copy. c
// must satisfy the CSR invariants (Graph.Validate checks them); a later
// mutation of the Graph leaves c as it is.
func (c *CSR) ToGraph() *Graph {
	g := &Graph{nodeW: c.NodeW, nodeWShared: true, nodeWT: c.NodeWT, edgeWT: c.EdgeWT, hyperWT: c.HWT, last: c}
	g.cur.Store(c)
	return g
}

// InducedSubgraph returns the CSR induced by nodes: node i of the result
// is nodes[i], and an edge survives when both its ends are listed. Row i
// lists its lower-id neighbors in ascending id order, then its higher
// ones in c's row order. Those are the rows a Graph's CSR holds when
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
