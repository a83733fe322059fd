package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomHyperGraph builds a random simple weighted graph with h random
// fanout hyperedges (pin 0 = writer) on top of randomGraph's topology —
// the shared helper the property and differential suites use so the
// hyperedge path needs no hand-built fixtures.
func randomHyperGraph(rng *rand.Rand, n, m, h int) *Graph {
	g := randomGraph(rng, n, m)
	for i := 0; i < h; i++ {
		fan := 2 + rng.Intn(4)
		if fan > n-1 {
			fan = n - 1
		}
		perm := rng.Perm(n)
		pins := make([]Node, 0, fan+1)
		for _, p := range perm[:fan+1] {
			pins = append(pins, Node(p))
		}
		g.MustAddHyperEdge(pins, int64(1+rng.Intn(20)))
	}
	return g
}

func TestAddHyperEdgeValidation(t *testing.T) {
	g := New(4)
	if err := g.AddHyperEdge([]Node{0}, 1); err == nil {
		t.Fatal("single-pin hyperedge accepted")
	}
	if err := g.AddHyperEdge([]Node{0, 1}, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := g.AddHyperEdge([]Node{0, 4}, 1); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
	if err := g.AddHyperEdge([]Node{0, 1, 0}, 1); err == nil {
		t.Fatal("duplicate pin accepted")
	}
	if err := g.AddHyperEdge([]Node{2, 0, 1}, 5); err != nil {
		t.Fatalf("valid hyperedge rejected: %v", err)
	}
	if g.NumHyperEdges() != 1 || g.TotalHyperWeight() != 5 {
		t.Fatalf("got %d nets weight %d", g.NumHyperEdges(), g.TotalHyperWeight())
	}
	if h := g.HyperEdge(0); h.Source() != 2 || len(h.Readers()) != 2 {
		t.Fatalf("unexpected net %+v", h)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestHyperValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomHyperGraph(rng, 12, 20, 5)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestHyperCSRSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomHyperGraph(rng, 15, 25, 6)
	c := g.ToCSR()
	if c.NumHyperEdges() != g.NumHyperEdges() || c.HWT != g.TotalHyperWeight() {
		t.Fatalf("snapshot has %d nets weight %d, want %d/%d",
			c.NumHyperEdges(), c.HWT, g.NumHyperEdges(), g.TotalHyperWeight())
	}
	// Pin lists round-trip in order.
	for e := 0; e < c.NumHyperEdges(); e++ {
		want := g.HyperEdge(e)
		got := c.HyperPins(int32(e))
		if len(got) != len(want.Pins) || c.HW[e] != want.Weight {
			t.Fatalf("net %d mismatch", e)
		}
		for i := range got {
			if got[i] != want.Pins[i] {
				t.Fatalf("net %d pin %d: got %d want %d", e, i, got[i], want.Pins[i])
			}
		}
	}
	// Incidence transposes the pin lists exactly.
	count := 0
	for u := 0; u < g.NumNodes(); u++ {
		for _, e := range c.IncidentHyper(Node(u)) {
			count++
			found := false
			for _, p := range c.HyperPins(e) {
				if p == Node(u) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("node %d listed on net %d but not a pin", u, e)
			}
		}
	}
	if count != len(c.HPins) {
		t.Fatalf("incidence covers %d pins, want %d", count, len(c.HPins))
	}
	// ToGraph round-trips the nets.
	back := c.ToGraph()
	if back.NumHyperEdges() != g.NumHyperEdges() || back.TotalHyperWeight() != g.TotalHyperWeight() {
		t.Fatal("ToGraph lost hyperedges")
	}
}

func TestHyperJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := randomHyperGraph(rng, 10, 14, 3)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if back.NumHyperEdges() != g.NumHyperEdges() || back.TotalHyperWeight() != g.TotalHyperWeight() {
		t.Fatal("JSON round-trip lost hyperedges")
	}
	for i := 0; i < g.NumHyperEdges(); i++ {
		a, b := g.HyperEdge(i), back.HyperEdge(i)
		if a.Weight != b.Weight || len(a.Pins) != len(b.Pins) {
			t.Fatalf("net %d mismatch", i)
		}
		for j := range a.Pins {
			if a.Pins[j] != b.Pins[j] {
				t.Fatalf("net %d pin %d mismatch", i, j)
			}
		}
	}
}
