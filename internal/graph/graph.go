// Package graph provides the weighted undirected graph representation used
// throughout the partitioner: nodes carry a weight (FPGA resources consumed
// by a process) and edges carry a weight (sustained bandwidth of a FIFO
// channel). The package offers an adjacency-list graph, a compact CSR form
// for the hot partitioning loops (a Graph's snapshot, or a contracted
// hierarchy level), structural queries, graph surgery (induced
// subgraphs, quotients), and several interchange formats.
package graph

import (
	"fmt"
	"sort"
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
// consumption; edge weights model channel bandwidth. The zero value is an
// empty graph ready for AddNode/AddEdge.
type Graph struct {
	nodeWeights []int64
	names       []string // optional labels, may be nil entries
	adj         [][]Half // adjacency: for node u, list of (neighbor, weight)
	numEdges    int
	totalEdgeW  int64
	totalNodeW  int64

	// Optional hyperedges (one writer, many readers — a PPN channel's
	// fanout). Empty for plain graphs; see hyper.go.
	hedges      []HyperEdge
	totalHyperW int64
}

// Half is one direction of an undirected edge as stored in adjacency lists.
type Half struct {
	To     Node
	Weight int64
}

// New returns a graph with n nodes of weight 1 and no edges.
func New(n int) *Graph {
	g := &Graph{
		nodeWeights: make([]int64, n),
		adj:         make([][]Half, n),
	}
	for i := range g.nodeWeights {
		g.nodeWeights[i] = 1
		g.totalNodeW++
	}
	return g
}

// NewWithWeights returns a graph whose node weights are copied from w.
func NewWithWeights(w []int64) *Graph {
	g := &Graph{
		nodeWeights: append([]int64(nil), w...),
		adj:         make([][]Half, len(w)),
	}
	for _, x := range w {
		g.totalNodeW += x
	}
	return g
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodeWeights) }

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// AddNode appends a node with the given weight and returns its id.
func (g *Graph) AddNode(weight int64) Node {
	g.nodeWeights = append(g.nodeWeights, weight)
	g.adj = append(g.adj, nil)
	if g.names != nil {
		g.names = append(g.names, "")
	}
	g.totalNodeW += weight
	return Node(len(g.nodeWeights) - 1)
}

// SetName attaches a human-readable label to node u (used by DOT/SVG export).
func (g *Graph) SetName(u Node, name string) {
	if g.names == nil {
		g.names = make([]string, len(g.nodeWeights))
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
func (g *Graph) NodeWeight(u Node) int64 { return g.nodeWeights[u] }

// SetNodeWeight overwrites the weight of node u.
func (g *Graph) SetNodeWeight(u Node, w int64) {
	g.totalNodeW += w - g.nodeWeights[u]
	g.nodeWeights[u] = w
}

// TotalNodeWeight returns the sum of all node weights.
func (g *Graph) TotalNodeWeight() int64 { return g.totalNodeW }

// TotalEdgeWeight returns the sum of all edge weights.
func (g *Graph) TotalEdgeWeight() int64 { return g.totalEdgeW }

// AddEdge inserts an undirected edge {u, v} with weight w. Adding an edge
// that already exists accumulates the weight onto the existing edge (the
// graph stays simple, mirroring the contraction semantics of the paper
// where parallel channels merge with summed bandwidth). Self loops are
// rejected: a FIFO from a process to itself never crosses a partition
// boundary, so the partitioning model discards them.
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
	for i := range g.adj[u] {
		if g.adj[u][i].To == v {
			g.adj[u][i].Weight += w
			for j := range g.adj[v] {
				if g.adj[v][j].To == u {
					g.adj[v][j].Weight += w
					break
				}
			}
			g.totalEdgeW += w
			return nil
		}
	}
	g.adj[u] = append(g.adj[u], Half{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Half{To: u, Weight: w})
	g.numEdges++
	g.totalEdgeW += w
	return nil
}

// MustAddEdge is AddEdge that panics on error; for tests and generators
// whose inputs are constructed correct.
func (g *Graph) MustAddEdge(u, v Node, w int64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v Node) bool {
	if int(u) >= len(g.adj) {
		return false
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge {u, v}, or 0 if absent.
func (g *Graph) EdgeWeight(u, v Node) int64 {
	if int(u) >= len(g.adj) {
		return 0
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return h.Weight
		}
	}
	return 0
}

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be mutated.
func (g *Graph) Neighbors(u Node) []Half { return g.adj[u] }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u Node) int { return len(g.adj[u]) }

// WeightedDegree returns the total weight of edges incident to u.
func (g *Graph) WeightedDegree(u Node) int64 {
	var s int64
	for _, h := range g.adj[u] {
		s += h.Weight
	}
	return s
}

// Edges returns all edges in canonical (U <= V) order, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for u := range g.adj {
		for _, h := range g.adj[u] {
			if Node(u) < h.To {
				out = append(out, Edge{U: Node(u), V: h.To, Weight: h.Weight})
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
func (g *Graph) NodeWeights() []int64 {
	return append([]int64(nil), g.nodeWeights...)
}

// Validate checks structural invariants: symmetric adjacency, no self
// loops, no duplicate neighbor entries, non-negative weights, and
// consistent cached totals. It is used by tests and by the I/O layer after
// parsing untrusted input.
func (g *Graph) Validate() error {
	var edgeW int64
	var nodeW int64
	cnt := 0
	for u := range g.adj {
		nodeW += g.nodeWeights[u]
		if g.nodeWeights[u] < 0 {
			return fmt.Errorf("graph: node %d has negative weight %d", u, g.nodeWeights[u])
		}
		seen := make(map[Node]bool, len(g.adj[u]))
		for _, h := range g.adj[u] {
			if h.To == Node(u) {
				return fmt.Errorf("graph: self loop on node %d", u)
			}
			if int(h.To) >= len(g.adj) || h.To < 0 {
				return fmt.Errorf("graph: node %d has dangling neighbor %d", u, h.To)
			}
			if seen[h.To] {
				return fmt.Errorf("graph: duplicate edge {%d,%d}", u, h.To)
			}
			seen[h.To] = true
			if h.Weight < 0 {
				return fmt.Errorf("graph: negative weight on edge {%d,%d}", u, h.To)
			}
			back := false
			for _, r := range g.adj[h.To] {
				if r.To == Node(u) {
					if r.Weight != h.Weight {
						return fmt.Errorf("graph: asymmetric weight on {%d,%d}: %d vs %d", u, h.To, h.Weight, r.Weight)
					}
					back = true
					break
				}
			}
			if !back {
				return fmt.Errorf("graph: missing reverse arc for {%d,%d}", u, h.To)
			}
			if Node(u) < h.To {
				cnt++
				edgeW += h.Weight
			}
		}
	}
	if cnt != g.numEdges {
		return fmt.Errorf("graph: edge count cache %d != actual %d", g.numEdges, cnt)
	}
	if edgeW != g.totalEdgeW {
		return fmt.Errorf("graph: edge weight cache %d != actual %d", g.totalEdgeW, edgeW)
	}
	if nodeW != g.totalNodeW {
		return fmt.Errorf("graph: node weight cache %d != actual %d", g.totalNodeW, nodeW)
	}
	return g.validateHyper()
}

// String renders a compact human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d, nodeW=%d, edgeW=%d)",
		g.NumNodes(), g.NumEdges(), g.totalNodeW, g.totalEdgeW)
}

// MaxNodeWeight returns the largest node weight, or 0 for an empty graph.
func (g *Graph) MaxNodeWeight() int64 {
	var m int64
	for _, w := range g.nodeWeights {
		if w > m {
			m = w
		}
	}
	return m
}
