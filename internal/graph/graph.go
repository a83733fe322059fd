// Package graph provides the weighted undirected graph representation used
// throughout the partitioner: nodes carry a weight (FPGA resources consumed
// by a process) and edges carry a weight (sustained bandwidth of a FIFO
// channel). A Graph holds its adjacency and nets in one compact CSR form,
// the form the hot partitioning loops read (a contracted hierarchy level
// is a CSR too). The package also offers structural queries, graph
// surgery (induced subgraphs, quotients), and several interchange formats.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Node identifies a vertex. Nodes are dense integers in [0, NumNodes).
type Node int32

// Edge is an undirected weighted edge between two nodes. The canonical form
// has U <= V; Normalize enforces it.
type Edge struct {
	U, V   Node
	Weight int64
}

// Normalize returns the edge with endpoints ordered so that U <= V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Graph is a weighted undirected simple graph. Node weights model resource
// consumption; edge weights model channel bandwidth. The node count is
// fixed by the constructor.
//
// The graph's one copy of its adjacency and nets is a CSR. AddEdge and
// AddHyperEdge queue their input, and the first read after a mutation
// folds the queue into a new CSR (fold). A CSR that ToCSR has returned
// never changes afterwards: the next fold builds new arrays, and
// SetNodeWeight copies the node weights first. Reads may run from many
// goroutines at once; a mutation must not overlap any other call.
type Graph struct {
	names []string // optional labels, may be nil entries

	// Mutations write these; reads and the fold only read them, except
	// that the fold empties the queues and sets nodeWShared.
	nodeW       []int64
	nodeWShared bool // a folded CSR holds nodeW: copy it before a write
	nodeWT      int64
	edgeWT      int64
	hyperWT     int64
	pend        []Edge  // edges queued since the last fold, in input order
	netPins     []Node  // pins of the nets queued since the last fold
	netEnd      []int32 // netPins end offset of each queued net
	netW        []int64 // weight of each queued net

	mu   sync.Mutex          // serialises the fold
	last *CSR                // the last fold's result, nil before it; under mu
	cur  atomic.Pointer[CSR] // last, or nil while a mutation is unfolded
}

// New returns a graph with n nodes of weight 1 and no edges.
func New(n int) *Graph {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return &Graph{nodeW: w, nodeWT: int64(n)}
}

// NewWithWeights returns a graph whose node weights are copied from w.
func NewWithWeights(w []int64) *Graph {
	g := &Graph{nodeW: slices.Clone(w)}
	for _, x := range w {
		g.nodeWT += x
	}
	return g
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodeW) }

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int { return g.ToCSR().NumEdges() }

// SetName attaches a human-readable label to node u (used by DOT/SVG export).
func (g *Graph) SetName(u Node, name string) {
	if g.names == nil {
		g.names = make([]string, len(g.nodeW))
	}
	g.names[u] = name
}

// Name returns the label of node u, or "" if unset.
func (g *Graph) Name(u Node) string {
	if g.names == nil {
		return ""
	}
	return g.names[u]
}

// NodeWeight returns the weight (resource demand) of node u.
func (g *Graph) NodeWeight(u Node) int64 { return g.nodeW[u] }

// SetNodeWeight overwrites the weight of node u.
func (g *Graph) SetNodeWeight(u Node, w int64) {
	if g.nodeWShared {
		g.nodeW = slices.Clone(g.nodeW)
		g.nodeWShared = false
	}
	g.nodeWT += w - g.nodeW[u]
	g.nodeW[u] = w
	g.cur.Store(nil)
}

// TotalNodeWeight returns the sum of all node weights.
func (g *Graph) TotalNodeWeight() int64 { return g.nodeWT }

// TotalEdgeWeight returns the sum of all edge weights.
func (g *Graph) TotalEdgeWeight() int64 { return g.edgeWT }

// AddEdge inserts an undirected edge {u, v} with weight w. Adding an edge
// that already exists accumulates the weight onto the existing edge (the
// graph stays simple, mirroring the contraction semantics of the paper
// where parallel channels merge with summed bandwidth). Self loops are
// rejected: a FIFO from a process to itself never crosses a partition
// boundary, so the partitioning model discards them. The edge is queued
// in O(1); the next read folds it in.
func (g *Graph) AddEdge(u, v Node, w int64) error {
	if u == v {
		return fmt.Errorf("graph: self loop on node %d rejected", u)
	}
	if int(u) >= g.NumNodes() || int(v) >= g.NumNodes() || u < 0 || v < 0 {
		return fmt.Errorf("graph: edge {%d,%d} references missing node (n=%d)", u, v, g.NumNodes())
	}
	if w < 0 {
		return fmt.Errorf("graph: negative edge weight %d on {%d,%d}", w, u, v)
	}
	g.pend = append(g.pend, Edge{U: u, V: v, Weight: w})
	g.edgeWT += w
	g.cur.Store(nil)
	return nil
}

// MustAddEdge is AddEdge that panics on error; for tests and generators
// whose inputs are constructed correct.
func (g *Graph) MustAddEdge(u, v Node, w int64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// ToCSR returns the graph's CSR, folding queued mutations first. The CSR
// is the graph's own storage, shared by every caller: it must not be
// mutated, and it never changes, not even when the graph does.
func (g *Graph) ToCSR() *CSR {
	if c := g.cur.Load(); c != nil {
		return c
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.cur.Load(); c != nil {
		return c
	}
	c := g.fold()
	g.cur.Store(c)
	return c
}

// fold builds the CSR for the graph's current state. The header is new;
// the adjacency arrays are rebuilt when edges are queued and the net
// arrays when nets are queued, and are otherwise shared with the last
// fold. Queued edges are appended to their rows in input order after
// the rows' existing entries, and each row is then folded
// (CSR.FoldRows), so the rows come out exactly as sequential AddEdge
// calls on simple adjacency lists would leave them.
func (g *Graph) fold() *CSR {
	n := len(g.nodeW)
	old := g.last
	if old == nil {
		old = &CSR{XAdj: make([]int32, n+1)}
	}
	c := *old
	c.NodeW, c.NodeWT, c.EdgeWT, c.HWT = g.nodeW, g.nodeWT, g.edgeWT, g.hyperWT
	if len(g.pend) > 0 {
		c.XAdj = make([]int32, n+1)
		for u := 0; u < n; u++ {
			c.XAdj[u+1] = int32(old.Degree(Node(u)))
		}
		for _, e := range g.pend {
			c.XAdj[e.U+1]++
			c.XAdj[e.V+1]++
		}
		for u := 0; u < n; u++ {
			c.XAdj[u+1] += c.XAdj[u]
		}
		c.Adj = make([]Node, c.XAdj[n])
		c.AdjW = make([]int64, c.XAdj[n])
		fill := make([]int32, n)
		for u := 0; u < n; u++ {
			nbrs, wts := old.Row(Node(u))
			copy(c.Adj[c.XAdj[u]:], nbrs)
			copy(c.AdjW[c.XAdj[u]:], wts)
			fill[u] = c.XAdj[u] + int32(len(nbrs))
		}
		for _, e := range g.pend {
			c.PushEdge(fill, e.U, e.V, e.Weight)
		}
		c.FoldRows(fill, make([]int32, n))
		g.pend = nil
	}
	if len(g.netW) > 0 {
		g.foldNets(&c)
	}
	g.last = &c
	g.nodeWShared = true
	return &c
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v Node) bool {
	c := g.ToCSR()
	if int(u) >= c.NumNodes() {
		return false
	}
	nbrs, _ := c.Row(u)
	return slices.Contains(nbrs, v)
}

// EdgeWeight returns the weight of edge {u, v}, or 0 if absent.
func (g *Graph) EdgeWeight(u, v Node) int64 {
	c := g.ToCSR()
	if int(u) >= c.NumNodes() {
		return 0
	}
	nbrs, wts := c.Row(u)
	if i := slices.Index(nbrs, v); i >= 0 {
		return wts[i]
	}
	return 0
}

// Row returns the neighbor ids and weights of node u as parallel slices,
// as CSR.Row does. The slices alias the graph's CSR and must not be
// mutated.
func (g *Graph) Row(u Node) ([]Node, []int64) { return g.ToCSR().Row(u) }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u Node) int { return g.ToCSR().Degree(u) }

// WeightedDegree returns the total weight of edges incident to u.
func (g *Graph) WeightedDegree(u Node) int64 { return g.ToCSR().WeightedDegree(u) }

// Edges returns all edges in canonical (U <= V) order, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	c := g.ToCSR()
	out := make([]Edge, 0, c.NumEdges())
	for u := 0; u < c.NumNodes(); u++ {
		nbrs, wts := c.Row(Node(u))
		for i, v := range nbrs {
			if Node(u) < v {
				out = append(out, Edge{U: Node(u), V: v, Weight: wts[i]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// NodeWeights returns a copy of the node weight vector.
func (g *Graph) NodeWeights() []int64 { return slices.Clone(g.nodeW) }

// Validate checks structural invariants of the graph's CSR: row offsets,
// symmetric adjacency, no self loops, no duplicate neighbor entries,
// non-negative weights, and consistent cached totals. It is used by tests
// and by the I/O layer after parsing untrusted input.
func (g *Graph) Validate() error {
	c := g.ToCSR()
	n := c.NumNodes()
	if n != len(c.NodeW) || len(c.Adj) != len(c.AdjW) || c.XAdj[0] != 0 || int(c.XAdj[n]) != len(c.Adj) {
		return fmt.Errorf("graph: CSR shape: %d offsets, %d node weights, %d/%d arcs",
			len(c.XAdj), len(c.NodeW), len(c.Adj), len(c.AdjW))
	}
	var edgeW, nodeW int64
	mark := make([]int32, n)
	for u := 0; u < n; u++ {
		nodeW += c.NodeW[u]
		if c.NodeW[u] < 0 {
			return fmt.Errorf("graph: node %d has negative weight %d", u, c.NodeW[u])
		}
		if c.XAdj[u] > c.XAdj[u+1] {
			return fmt.Errorf("graph: row %d has negative length", u)
		}
		nbrs, wts := c.Row(Node(u))
		for i, v := range nbrs {
			if v == Node(u) {
				return fmt.Errorf("graph: self loop on node %d", u)
			}
			if int(v) >= n || v < 0 {
				return fmt.Errorf("graph: node %d has dangling neighbor %d", u, v)
			}
			if mark[v] == int32(u)+1 {
				return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
			}
			mark[v] = int32(u) + 1
			if wts[i] < 0 {
				return fmt.Errorf("graph: negative weight on edge {%d,%d}", u, v)
			}
			back, backW := c.Row(v)
			j := slices.Index(back, Node(u))
			if j < 0 {
				return fmt.Errorf("graph: missing reverse arc for {%d,%d}", u, v)
			}
			if backW[j] != wts[i] {
				return fmt.Errorf("graph: asymmetric weight on {%d,%d}: %d vs %d", u, v, wts[i], backW[j])
			}
			if Node(u) < v {
				edgeW += wts[i]
			}
		}
	}
	if edgeW != c.EdgeWT {
		return fmt.Errorf("graph: edge weight cache %d != actual %d", c.EdgeWT, edgeW)
	}
	if nodeW != c.NodeWT {
		return fmt.Errorf("graph: node weight cache %d != actual %d", c.NodeWT, nodeW)
	}
	return c.validateHyper()
}

// String renders a compact human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d, nodeW=%d, edgeW=%d)",
		g.NumNodes(), g.NumEdges(), g.nodeWT, g.edgeWT)
}

// MaxNodeWeight returns the largest node weight, or 0 for an empty graph.
func (g *Graph) MaxNodeWeight() int64 {
	var m int64
	for _, w := range g.nodeW {
		if w > m {
			m = w
		}
	}
	return m
}
