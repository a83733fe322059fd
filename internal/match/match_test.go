package match

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
)

func randomConnected(rng *rand.Rand, n int) *graph.Graph {
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(40))
	}
	g := graph.NewWithWeights(w)
	// Spanning path guarantees connectivity, plus extra random edges.
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(1+rng.Intn(20)))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), int64(1+rng.Intn(20)))
		}
	}
	return g
}

// isMaximal reports whether no edge has both endpoints unmatched.
func isMaximal(g *graph.Graph, m Matching) bool {
	for _, e := range g.Edges() {
		if m[e.U] == Unmatched && m[e.V] == Unmatched {
			return false
		}
	}
	return true
}

func TestNewMatchingAllUnmatched(t *testing.T) {
	m := NewMatching(5)
	for i, v := range m {
		if v != Unmatched {
			t.Fatalf("node %d initialized matched", i)
		}
	}
	if m.Pairs() != 0 {
		t.Fatal("fresh matching has pairs")
	}
}

func TestMatchingValidateCatchesBadPairs(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	m := NewMatching(4)
	m[0], m[1] = 1, 0
	if err := m.Validate(g); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
	// Asymmetric.
	m2 := NewMatching(4)
	m2[0] = 1
	if err := m2.Validate(g); err == nil {
		t.Fatal("asymmetric matching accepted")
	}
	// Self match.
	m3 := NewMatching(4)
	m3[2] = 2
	if err := m3.Validate(g); err == nil {
		t.Fatal("self match accepted")
	}
	// Non-adjacent pair.
	m4 := NewMatching(4)
	m4[2], m4[3] = 3, 2
	if err := m4.Validate(g); err == nil {
		t.Fatal("non-adjacent pair accepted")
	}
	// Wrong length.
	m5 := NewMatching(3)
	if err := m5.Validate(g); err == nil {
		t.Fatal("wrong-length matching accepted")
	}
	// Out of range.
	m6 := NewMatching(4)
	m6[0] = 9
	if err := m6.Validate(g); err == nil {
		t.Fatal("out-of-range partner accepted")
	}
}

func TestRandomMatchingValidAndMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(rng, 2+rng.Intn(50))
		m := randomWS(new(arena.Workspace), g.ToCSR(), rng)
		if err := m.Validate(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !isMaximal(g, m) {
			t.Fatalf("trial %d: matching not maximal", trial)
		}
	}
}

func TestRandomMatchingDeterministicForSeed(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(7)), 30)
	m1 := randomWS(new(arena.Workspace), g.ToCSR(), rand.New(rand.NewSource(42)))
	m2 := randomWS(new(arena.Workspace), g.ToCSR(), rand.New(rand.NewSource(42)))
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("same seed produced different matchings")
		}
	}
}

func TestHeavyEdgePrefersHeavyEdges(t *testing.T) {
	// Star-ish: 0-1 weight 100, 1-2 weight 1, 2-3 weight 100.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 100)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 100)
	m := heavyEdgeWS(new(arena.Workspace), g.ToCSR())
	if m[0] != 1 || m[2] != 3 {
		t.Fatalf("heavy edges not matched: %v", m)
	}
	if m.MatchedWeight(g.ToCSR()) != 200 {
		t.Fatalf("matched weight = %d, want 200", m.MatchedWeight(g.ToCSR()))
	}
}

func TestHeavyEdgeValidMaximalDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(rng, 2+rng.Intn(50))
		m := heavyEdgeWS(new(arena.Workspace), g.ToCSR())
		if err := m.Validate(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !isMaximal(g, m) {
			t.Fatalf("trial %d: not maximal", trial)
		}
		m2 := heavyEdgeWS(new(arena.Workspace), g.ToCSR())
		for i := range m {
			if m[i] != m2[i] {
				t.Fatal("heavy-edge matching nondeterministic")
			}
		}
	}
}

func TestHeavyEdgeBeatsOrTiesRandomOnMatchedWeight(t *testing.T) {
	// Statistical sanity: on average over many graphs, HEM's matched weight
	// should be at least Random's. Compare totals to tolerate outliers.
	rng := rand.New(rand.NewSource(11))
	var hemTotal, rndTotal int64
	for trial := 0; trial < 30; trial++ {
		g := randomConnected(rng, 40)
		hemTotal += heavyEdgeWS(new(arena.Workspace), g.ToCSR()).MatchedWeight(g.ToCSR())
		rndTotal += randomWS(new(arena.Workspace), g.ToCSR(), rng).MatchedWeight(g.ToCSR())
	}
	if hemTotal < rndTotal {
		t.Fatalf("HEM total matched weight %d < random %d", hemTotal, rndTotal)
	}
}

func TestKMeansValidAndMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(rng, 2+rng.Intn(50))
		m := kMeansWS(new(arena.Workspace), g.ToCSR(), 4, rng)
		if err := m.Validate(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !isMaximal(g, m) {
			t.Fatalf("trial %d: not maximal", trial)
		}
	}
}

func TestKMeansDegenerateClusterCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnected(rng, 10)
	for _, k := range []int{-1, 0, 1, 10, 100} {
		m := kMeansWS(new(arena.Workspace), g.ToCSR(), k, rng)
		if err := m.Validate(g); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	empty := graph.New(0)
	if m := kMeansWS(new(arena.Workspace), empty.ToCSR(), 3, rng); len(m) != 0 {
		t.Fatal("empty graph should give empty matching")
	}
}

func TestKMeansPairsSimilarWeights(t *testing.T) {
	// Two weight classes on a complete bipartite-ish graph: heavy nodes
	// 0,1 (weight 100) and light nodes 2,3 (weight 1), all adjacent.
	g := graph.NewWithWeights([]int64{100, 100, 1, 1})
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.MustAddEdge(graph.Node(u), graph.Node(v), 1)
		}
	}
	// With 2 clusters the heavy pair and light pair should match together
	// for most seeds; check a fixed seed known to exercise the same-cluster
	// preference deterministically.
	m := kMeansWS(new(arena.Workspace), g.ToCSR(), 2, rand.New(rand.NewSource(1)))
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if m[0] != 1 || m[2] != 3 {
		t.Fatalf("expected weight-homogeneous pairs, got %v", m)
	}
}

func TestComputeAndNames(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(rng, 20)
	for _, h := range All() {
		m, err := Compute(h, g, 0, rng)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if err := m.Validate(g); err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if !h.Valid() {
			t.Fatalf("heuristic %v should be valid", h)
		}
		if h.String() == "" {
			t.Fatalf("heuristic %d has empty name", int(h))
		}
	}
	if Heuristic(99).String() == "" {
		t.Fatal("unknown heuristic should still render")
	}
	if Heuristic(99).Valid() {
		t.Fatal("heuristic 99 should not be valid")
	}
	m, err := Compute(Heuristic(99), g, 0, rng)
	if !errors.Is(err, ErrUnknownHeuristic) {
		t.Fatalf("Compute with unknown heuristic: err = %v, want ErrUnknownHeuristic", err)
	}
	if m != nil {
		t.Fatal("Compute with unknown heuristic returned a matching")
	}
}

func TestPropertyAllHeuristicsValidMaximal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 2+rng.Intn(40))
		for _, h := range All() {
			m, err := Compute(h, g, 3, rng)
			if err != nil || m.Validate(g) != nil || !isMaximal(g, m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMatchedWeightBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 2+rng.Intn(40))
		for _, h := range All() {
			m, err := Compute(h, g, 3, rng)
			if err != nil {
				return false
			}
			w := m.MatchedWeight(g.ToCSR())
			if w < 0 || w > g.TotalEdgeWeight() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
