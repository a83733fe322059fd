// Package gen provides deterministic (seeded) generators for the graphs
// and process networks the evaluation uses: random connected weighted
// graphs with exact node/edge counts (the paper's synthetic instances),
// classic topology families (meshes, tori, rings, trees, hypercubes,
// layered pipelines, preferential attachment), random PPNs, and the three
// reconstructed paper instances.
package gen

import (
	"fmt"
	"math/rand"
	"slices"

	"ppnpart/internal/graph"
)

// WeightRange is an inclusive integer range for generated weights.
type WeightRange struct {
	Lo, Hi int64
}

// sample draws a value from the range (Lo if degenerate).
func (w WeightRange) sample(rng *rand.Rand) int64 {
	if w.Hi <= w.Lo {
		return w.Lo
	}
	return w.Lo + rng.Int63n(w.Hi-w.Lo+1)
}

// RandomConnected builds a connected simple graph with exactly n nodes and
// m edges (m >= n-1 and m <= n(n-1)/2), node weights in nodeW and edge
// weights in edgeW. A random spanning tree guarantees connectivity; the
// remaining edges are drawn uniformly among absent pairs.
func RandomConnected(n, m int, nodeW, edgeW WeightRange, rng *rand.Rand) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: n = %d must be >= 1", n)
	}
	maxM := n * (n - 1) / 2
	if m < n-1 || m > maxM {
		return nil, fmt.Errorf("gen: m = %d out of range [%d, %d] for n = %d", m, n-1, maxM, n)
	}
	w := make([]int64, n)
	for i := range w {
		w[i] = nodeW.sample(rng)
	}
	g := graph.NewWithWeights(w)
	// drawn holds the pairs drawn so far, lower node in the high half: it
	// answers the membership test that keeps the graph simple, since g
	// folds its edges only when first read.
	drawn := make(map[uint64]bool, m)
	pair := func(u, v graph.Node) uint64 { return uint64(min(u, v))<<32 | uint64(max(u, v)) }
	add := func(u, v graph.Node) {
		g.MustAddEdge(u, v, edgeW.sample(rng))
		drawn[pair(u, v)] = true
	}
	// Random spanning tree: attach each node i > 0 to a random earlier
	// node over a random permutation (uniform random recursive tree on a
	// shuffled labeling).
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		add(graph.Node(perm[i]), graph.Node(perm[j]))
	}
	for edges := n - 1; edges < m; {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		if u == v || drawn[pair(u, v)] {
			continue
		}
		add(u, v)
		edges++
	}
	return g, nil
}

// Mesh2D builds a rows×cols grid graph.
func Mesh2D(rows, cols int, nodeW, edgeW WeightRange, rng *rand.Rand) (*graph.Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("gen: mesh dims %dx%d invalid", rows, cols)
	}
	n := rows * cols
	w := make([]int64, n)
	for i := range w {
		w[i] = nodeW.sample(rng)
	}
	g := graph.NewWithWeights(w)
	id := func(r, c int) graph.Node { return graph.Node(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1), edgeW.sample(rng))
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c), edgeW.sample(rng))
			}
		}
	}
	return g, nil
}

// Torus2D builds a rows×cols torus (grid with wraparound).
func Torus2D(rows, cols int, nodeW, edgeW WeightRange, rng *rand.Rand) (*graph.Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("gen: torus dims %dx%d must be >= 3", rows, cols)
	}
	g, err := Mesh2D(rows, cols, nodeW, edgeW, rng)
	if err != nil {
		return nil, err
	}
	id := func(r, c int) graph.Node { return graph.Node(r*cols + c) }
	for r := 0; r < rows; r++ {
		g.MustAddEdge(id(r, cols-1), id(r, 0), edgeW.sample(rng))
	}
	for c := 0; c < cols; c++ {
		g.MustAddEdge(id(rows-1, c), id(0, c), edgeW.sample(rng))
	}
	return g, nil
}

// Ring builds an n-cycle.
func Ring(n int, nodeW, edgeW WeightRange, rng *rand.Rand) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: ring needs n >= 3, got %d", n)
	}
	w := make([]int64, n)
	for i := range w {
		w[i] = nodeW.sample(rng)
	}
	g := graph.NewWithWeights(w)
	for i := 0; i < n; i++ {
		g.MustAddEdge(graph.Node(i), graph.Node((i+1)%n), edgeW.sample(rng))
	}
	return g, nil
}

// RandomTree builds a uniform random recursive tree on n nodes.
func RandomTree(n int, nodeW, edgeW WeightRange, rng *rand.Rand) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: tree needs n >= 1, got %d", n)
	}
	w := make([]int64, n)
	for i := range w {
		w[i] = nodeW.sample(rng)
	}
	g := graph.NewWithWeights(w)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(i), graph.Node(rng.Intn(i)), edgeW.sample(rng))
	}
	return g, nil
}

// Hypercube builds the d-dimensional hypercube (2^d nodes).
func Hypercube(d int, nodeW, edgeW WeightRange, rng *rand.Rand) (*graph.Graph, error) {
	if d < 1 || d > 20 {
		return nil, fmt.Errorf("gen: hypercube dim %d out of range [1,20]", d)
	}
	n := 1 << d
	w := make([]int64, n)
	for i := range w {
		w[i] = nodeW.sample(rng)
	}
	g := graph.NewWithWeights(w)
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << b)
			if u < v {
				g.MustAddEdge(graph.Node(u), graph.Node(v), edgeW.sample(rng))
			}
		}
	}
	return g, nil
}

// Layered builds a layered pipeline graph: `layers` layers of `width`
// nodes; every node connects to `fanout` random nodes of the next layer
// (at least one, so the pipeline is connected layer to layer).
func Layered(layers, width, fanout int, nodeW, edgeW WeightRange, rng *rand.Rand) (*graph.Graph, error) {
	if layers < 2 || width < 1 || fanout < 1 || fanout > width {
		return nil, fmt.Errorf("gen: layered(%d,%d,%d) invalid", layers, width, fanout)
	}
	n := layers * width
	w := make([]int64, n)
	for i := range w {
		w[i] = nodeW.sample(rng)
	}
	g := graph.NewWithWeights(w)
	id := func(l, i int) graph.Node { return graph.Node(l*width + i) }
	linked := make([]bool, n) // has a layer-to-layer edge
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			targets := rng.Perm(width)[:fanout]
			for _, t := range targets {
				g.MustAddEdge(id(l, i), id(l+1, t), edgeW.sample(rng))
				linked[id(l, i)], linked[id(l+1, t)] = true, true
			}
		}
	}
	// Tie each layer internally at one point so the graph is connected
	// even with fanout patterns that isolate columns.
	for l := 0; l < layers; l++ {
		for i := 1; i < width; i++ {
			if !linked[id(l, i)] {
				g.MustAddEdge(id(l, i), id(l, i-1), edgeW.sample(rng))
			}
		}
	}
	return g, nil
}

// PreferentialAttachment builds a Barabási–Albert-style graph: nodes
// arrive one at a time and attach `attach` edges to existing nodes with
// probability proportional to degree+1.
func PreferentialAttachment(n, attach int, nodeW, edgeW WeightRange, rng *rand.Rand) (*graph.Graph, error) {
	if n < 2 || attach < 1 {
		return nil, fmt.Errorf("gen: preferential(%d,%d) invalid", n, attach)
	}
	w := make([]int64, n)
	for i := range w {
		w[i] = nodeW.sample(rng)
	}
	g := graph.NewWithWeights(w)
	// Degree-proportional sampling over a repeated-endpoints list. Node
	// u's edges all arrive in its own round, so mine, its neighbours so
	// far, answers whether {u, v} is already an edge.
	var endpoints, mine []graph.Node
	endpoints = append(endpoints, 0)
	for u := 1; u < n; u++ {
		added := 0
		tries := 0
		mine = mine[:0]
		for added < attach && tries < 50 {
			tries++
			var v graph.Node
			if len(endpoints) == 0 {
				v = graph.Node(rng.Intn(u))
			} else {
				v = endpoints[rng.Intn(len(endpoints))]
			}
			if v == graph.Node(u) || slices.Contains(mine, v) {
				continue
			}
			g.MustAddEdge(graph.Node(u), v, edgeW.sample(rng))
			endpoints = append(endpoints, graph.Node(u), v)
			mine = append(mine, v)
			added++
		}
		if added == 0 {
			// Guarantee connectivity.
			v := graph.Node(rng.Intn(u))
			if !slices.Contains(mine, v) {
				g.MustAddEdge(graph.Node(u), v, edgeW.sample(rng))
				endpoints = append(endpoints, graph.Node(u), v)
			}
		}
	}
	return g, nil
}
