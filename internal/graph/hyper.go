package graph

import "fmt"

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
	g.hedges = append(g.hedges, HyperEdge{Pins: append([]Node(nil), pins...), Weight: w})
	g.totalHyperW += w
	return nil
}

// MustAddHyperEdge is AddHyperEdge that panics on error.
func (g *Graph) MustAddHyperEdge(pins []Node, w int64) {
	if err := g.AddHyperEdge(pins, w); err != nil {
		panic(err)
	}
}

// NumHyperEdges reports the number of hyperedges (0 for pure graphs).
func (g *Graph) NumHyperEdges() int { return len(g.hedges) }

// HyperEdge returns the i-th hyperedge. The pin slice is owned by the
// graph and must not be mutated.
func (g *Graph) HyperEdge(i int) HyperEdge { return g.hedges[i] }

// HyperEdges returns the hyperedge list. The slice and its pin lists are
// owned by the graph and must not be mutated.
func (g *Graph) HyperEdges() []HyperEdge { return g.hedges }

// TotalHyperWeight returns the sum of all hyperedge weights.
func (g *Graph) TotalHyperWeight() int64 { return g.totalHyperW }

// validateHyper checks hyperedge invariants: >= 2 distinct in-range pins,
// non-negative weights, and a consistent cached total.
func (g *Graph) validateHyper() error {
	var hw int64
	for i, h := range g.hedges {
		if len(h.Pins) < 2 {
			return fmt.Errorf("graph: hyperedge %d has %d pins", i, len(h.Pins))
		}
		if h.Weight < 0 {
			return fmt.Errorf("graph: hyperedge %d has negative weight %d", i, h.Weight)
		}
		seen := make(map[Node]bool, len(h.Pins))
		for _, p := range h.Pins {
			if p < 0 || int(p) >= g.NumNodes() {
				return fmt.Errorf("graph: hyperedge %d pin %d outside [0,%d)", i, p, g.NumNodes())
			}
			if seen[p] {
				return fmt.Errorf("graph: hyperedge %d has duplicate pin %d", i, p)
			}
			seen[p] = true
		}
		hw += h.Weight
	}
	if hw != g.totalHyperW {
		return fmt.Errorf("graph: hyperedge weight cache %d != actual %d", g.totalHyperW, hw)
	}
	return nil
}

// fillHyperCSR snapshots the hyperedge set into c, reusing c's storage
// as SnapshotInto does: the pin lists in CSR layout plus the transposed
// node->hyperedge incidence the incremental partition state walks on
// every move. A graph without hyperedges leaves every hyper field empty.
func (g *Graph) fillHyperCSR(c *CSR) {
	c.HWT = g.totalHyperW
	nh := len(g.hedges)
	if nh == 0 {
		c.HXPins, c.HPins, c.HW = c.HXPins[:0], c.HPins[:0], c.HW[:0]
		c.HXInc, c.HInc = c.HXInc[:0], c.HInc[:0]
		return
	}
	n := g.NumNodes()
	pins := 0
	for _, h := range g.hedges {
		pins += len(h.Pins)
	}
	c.HXPins = resize(c.HXPins, nh+1)
	c.HPins = resize(c.HPins, pins)
	c.HW = resize(c.HW, nh)
	c.HXInc = resize(c.HXInc, n+1)
	c.HInc = resize(c.HInc, pins)
	clear(c.HXInc)
	var at int32
	for i, h := range g.hedges {
		c.HXPins[i] = at
		at += int32(copy(c.HPins[at:], h.Pins))
		c.HW[i] = h.Weight
		for _, p := range h.Pins {
			c.HXInc[p+1]++
		}
	}
	c.HXPins[nh] = at
	for u := 0; u < n; u++ {
		c.HXInc[u+1] += c.HXInc[u]
	}
	// Fill incidence in hyperedge order so each row lists nets ascending.
	// HXInc[u] serves as row u's fill cursor, which leaves it at row u's
	// end; the shift below restores the row starts.
	for i, h := range g.hedges {
		for _, p := range h.Pins {
			c.HInc[c.HXInc[p]] = int32(i)
			c.HXInc[p]++
		}
	}
	copy(c.HXInc[1:], c.HXInc[:n])
	c.HXInc[0] = 0
}

// NumHyperEdges reports the number of hyperedges in the snapshot.
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
