package graph

import (
	"fmt"
	"slices"
)

// HyperEdge models a one-writer/many-reader PPN channel fanout as a single
// net: Pins[0] is the producing process (the writer) and the remaining pins
// are the consumers of the same token stream. A hyperedge with exactly two
// pins is semantically a plain channel; the PPN lowering emits those as
// pairwise edges instead, so hyperedges in practice always have fanout >= 2.
// The weight is the bandwidth of the producer's single output stream —
// paying it once per remote partition (connectivity-1) instead of once per
// reader is exactly what the flat edge model cannot express.
type HyperEdge struct {
	Pins   []Node
	Weight int64
}

// Source returns the writer pin of the hyperedge.
func (h HyperEdge) Source() Node { return h.Pins[0] }

// Readers returns the consumer pins. The slice aliases Pins.
func (h HyperEdge) Readers() []Node { return h.Pins[1:] }

// AddHyperEdge inserts a hyperedge whose first pin is the writer and whose
// remaining pins are the readers. Pins must be distinct, in range, and at
// least two; the weight must be non-negative. Unlike AddEdge, duplicate
// hyperedges are not folded: two broadcast streams between the same
// processes remain two nets, each paying its own per-partition cost.
func (g *Graph) AddHyperEdge(pins []Node, w int64) error {
	if len(pins) < 2 {
		return fmt.Errorf("graph: hyperedge needs >= 2 pins, got %d", len(pins))
	}
	if w < 0 {
		return fmt.Errorf("graph: negative hyperedge weight %d", w)
	}
	seen := make(map[Node]bool, len(pins))
	for _, p := range pins {
		if p < 0 || int(p) >= g.NumNodes() {
			return fmt.Errorf("graph: hyperedge pin %d outside [0,%d)", p, g.NumNodes())
		}
		if seen[p] {
			return fmt.Errorf("graph: duplicate pin %d in hyperedge", p)
		}
		seen[p] = true
	}
	g.netPins = append(g.netPins, pins...)
	g.netEnd = append(g.netEnd, int32(len(g.netPins)))
	g.netW = append(g.netW, w)
	g.hyperWT += w
	g.cur.Store(nil)
	return nil
}

// MustAddHyperEdge is AddHyperEdge that panics on error.
func (g *Graph) MustAddHyperEdge(pins []Node, w int64) {
	if err := g.AddHyperEdge(pins, w); err != nil {
		panic(err)
	}
}

// NumHyperEdges reports the number of hyperedges (0 for pure graphs).
func (g *Graph) NumHyperEdges() int { return g.ToCSR().NumHyperEdges() }

// HyperEdge returns the i-th hyperedge. The pin slice aliases the graph's
// CSR and must not be mutated.
func (g *Graph) HyperEdge(i int) HyperEdge {
	c := g.ToCSR()
	return HyperEdge{Pins: c.HyperPins(int32(i)), Weight: c.HW[i]}
}

// TotalHyperWeight returns the sum of all hyperedge weights.
func (g *Graph) TotalHyperWeight() int64 { return g.hyperWT }

// validateHyper checks hyperedge invariants: >= 2 distinct in-range pins,
// non-negative weights, a consistent cached total, and an incidence that
// transposes the pin lists.
func (c *CSR) validateHyper() error {
	n := c.NumNodes()
	nh := c.NumHyperEdges()
	if len(c.HW) != nh || (nh > 0 && (c.HXPins[0] != 0 || int(c.HXPins[nh]) != len(c.HPins))) {
		return fmt.Errorf("graph: net arrays: %d offsets, %d weights, %d pins", len(c.HXPins), len(c.HW), len(c.HPins))
	}
	var hw int64
	mark := make([]int32, n)
	for e := 0; e < nh; e++ {
		if c.HXPins[e] > c.HXPins[e+1] {
			return fmt.Errorf("graph: hyperedge %d has negative length", e)
		}
		pins := c.HyperPins(int32(e))
		if len(pins) < 2 {
			return fmt.Errorf("graph: hyperedge %d has %d pins", e, len(pins))
		}
		if c.HW[e] < 0 {
			return fmt.Errorf("graph: hyperedge %d has negative weight %d", e, c.HW[e])
		}
		for _, p := range pins {
			if p < 0 || int(p) >= n {
				return fmt.Errorf("graph: hyperedge %d pin %d outside [0,%d)", e, p, n)
			}
			if mark[p] == int32(e)+1 {
				return fmt.Errorf("graph: hyperedge %d has duplicate pin %d", e, p)
			}
			mark[p] = int32(e) + 1
			if !slices.Contains(c.IncidentHyper(p), int32(e)) {
				return fmt.Errorf("graph: hyperedge %d missing from pin %d's incidence", e, p)
			}
		}
		hw += c.HW[e]
	}
	if nh > 0 && len(c.HInc) != len(c.HPins) {
		return fmt.Errorf("graph: incidence lists %d pins, nets %d", len(c.HInc), len(c.HPins))
	}
	if hw != c.HWT {
		return fmt.Errorf("graph: hyperedge weight cache %d != actual %d", c.HWT, hw)
	}
	return nil
}

// foldNets rebuilds c's net arrays as the last fold's nets followed by the
// queued ones, and empties the queue: the pin lists in CSR layout plus the
// transposed node->hyperedge incidence the incremental partition state
// walks on every move. The new arrays share nothing with the old ones.
func (g *Graph) foldNets(c *CSR) {
	old := c.NumHyperEdges()
	nh := old + len(g.netW)
	base := int32(len(c.HPins))
	c.HXPins = append(append(make([]int32, 0, nh+1), c.HXPins[:old]...), base)
	for _, end := range g.netEnd {
		c.HXPins = append(c.HXPins, base+end)
	}
	c.HPins = append(slices.Clip(c.HPins), g.netPins...)
	c.HW = append(slices.Clip(c.HW), g.netW...)
	g.netPins, g.netEnd, g.netW = nil, nil, nil

	n := c.NumNodes()
	c.HXInc = make([]int32, n+1)
	c.HInc = make([]int32, len(c.HPins))
	for _, p := range c.HPins {
		c.HXInc[p+1]++
	}
	for u := 0; u < n; u++ {
		c.HXInc[u+1] += c.HXInc[u]
	}
	// Fill incidence in hyperedge order so each row lists nets ascending.
	// HXInc[u] serves as row u's fill cursor, which leaves it at row u's
	// end; the shift below restores the row starts.
	for e := int32(0); e < int32(nh); e++ {
		for _, p := range c.HyperPins(e) {
			c.HInc[c.HXInc[p]] = e
			c.HXInc[p]++
		}
	}
	copy(c.HXInc[1:], c.HXInc[:n])
	c.HXInc[0] = 0
}

// NumHyperEdges reports the number of hyperedges in the CSR.
func (c *CSR) NumHyperEdges() int {
	if len(c.HXPins) == 0 {
		return 0
	}
	return len(c.HXPins) - 1
}

// HyperPins returns the pin list of hyperedge e (Pins[0] = writer). The
// slice aliases the CSR arrays and must not be mutated.
func (c *CSR) HyperPins(e int32) []Node {
	return c.HPins[c.HXPins[e]:c.HXPins[e+1]]
}

// IncidentHyper returns the ids of the hyperedges containing node u.
func (c *CSR) IncidentHyper(u Node) []int32 {
	if len(c.HXInc) == 0 {
		return nil
	}
	return c.HInc[c.HXInc[u]:c.HXInc[u+1]]
}
