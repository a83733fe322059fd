package graph

import (
	"fmt"
	"math/bits"
)

// Builder accumulates a CSR with O(1) duplicate-edge folding.
// Graph.AddEdge detects duplicates with a linear scan of the adjacency
// row, which makes contraction of dense coarse nodes quadratic in degree;
// the Builder instead indexes every endpoint pair in one open-addressing
// hash table (packed 32-bit ids, linear probing, no per-row maps), so an
// AddEdge is a single probe regardless of degree. The emitted CSR has
// rows in exactly the order sequential Graph.AddEdge calls would produce
// (first-encounter order), so every downstream consumer — including the
// RNG-driven matching heuristics that iterate neighbor lists — sees
// bit-identical behavior.
type Builder struct {
	// c holds the rows being filled: row u is carved at
	// [c.XAdj[u], c.XAdj[u+1]) of Adj/AdjW until CSR compacts them.
	c *CSR
	// fill[u] is one past row u's last entry.
	fill []int32
	// keys holds (min<<32|max)+1 per occupied slot; 0 marks an empty
	// slot. pos holds the matching half-edge positions in Adj, min's in
	// the high word and max's in the low word.
	keys []uint64
	pos  []uint64
}

// NewBuilderCap starts a builder whose rows are carved from one backing
// array: degCap[u] is an upper bound on the final degree of node u, and
// AddEdge rejects an edge that would overflow it. Carving every row up
// front replaces per-row growth with one bulk allocation. The builder
// takes ownership of weights (it is not copied) and uses degCap as its
// fill cursor, so the caller must not read degCap afterwards. The degree
// bound also sizes the dedup table, so edge insertion never rehashes.
func NewBuilderCap(weights []int64, degCap []int32) *Builder {
	n := len(weights)
	c := &CSR{XAdj: make([]int32, n+1), NodeW: weights}
	for _, x := range weights {
		c.NodeWT += x
	}
	var total int32
	for u, d := range degCap {
		c.XAdj[u] = total
		degCap[u] = total
		total += d
	}
	c.XAdj[n] = total
	c.Adj = make([]Node, total)
	c.AdjW = make([]int64, total)
	// At most total/2 distinct edges; keep the table under 3/4 load.
	size := 1 << bits.Len(uint(int(total)/2*4/3+15))
	return &Builder{c: c, fill: degCap, keys: make([]uint64, size), pos: make([]uint64, size)}
}

// probe returns the slot holding key, or the empty slot where it belongs.
// Fibonacci hashing: the high bits of the product are the best-mixed, so
// the table index is taken from the top.
func (b *Builder) probe(key uint64) int {
	mask := uint64(len(b.keys) - 1)
	i := (key * 0x9E3779B97F4A7C15) >> (64 - uint(bits.Len(uint(mask)))) & mask
	for b.keys[i] != 0 && b.keys[i] != key {
		i = (i + 1) & mask
	}
	return int(i)
}

// AddEdge inserts {u, v} with weight w, folding duplicates by summing
// weights — the same semantics and validation as Graph.AddEdge.
func (b *Builder) AddEdge(u, v Node, w int64) error {
	c := b.c
	if u == v {
		return fmt.Errorf("graph: self loop on node %d rejected", u)
	}
	if int(u) >= c.NumNodes() || int(v) >= c.NumNodes() || u < 0 || v < 0 {
		return fmt.Errorf("graph: edge {%d,%d} references missing node (n=%d)", u, v, c.NumNodes())
	}
	if w < 0 {
		return fmt.Errorf("graph: negative edge weight %d on {%d,%d}", w, u, v)
	}
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	key := uint64(lo)<<32 | (uint64(hi) + 1)
	i := b.probe(key)
	if b.keys[i] != 0 {
		p := b.pos[i]
		c.AdjW[p>>32] += w
		c.AdjW[p&0xFFFFFFFF] += w
		c.EdgeWT += w
		return nil
	}
	if b.fill[u] == c.XAdj[u+1] || b.fill[v] == c.XAdj[v+1] {
		return fmt.Errorf("graph: edge {%d,%d} exceeds a degree bound", u, v)
	}
	pu, pv := b.fill[u], b.fill[v]
	c.Adj[pu], c.AdjW[pu] = v, w
	c.Adj[pv], c.AdjW[pv] = u, w
	b.fill[u]++
	b.fill[v]++
	if lo != u {
		pu, pv = pv, pu
	}
	b.keys[i] = key
	b.pos[i] = uint64(pu)<<32 | uint64(pv)
	c.EdgeWT += w
	return nil
}

// CSR compacts the rows to the front of the backing arrays and returns
// the built snapshot. The Builder must not be used afterwards.
func (b *Builder) CSR() *CSR {
	c := b.c
	n := c.NumNodes()
	var out int32
	for u := 0; u < n; u++ {
		lo, hi := c.XAdj[u], b.fill[u]
		c.XAdj[u] = out
		copy(c.Adj[out:], c.Adj[lo:hi])
		copy(c.AdjW[out:], c.AdjW[lo:hi])
		out += hi - lo
	}
	c.XAdj[n] = out
	c.Adj, c.AdjW = c.Adj[:out], c.AdjW[:out]
	*b = Builder{}
	return c
}
