package pstate

import (
	"math/rand"
	"testing"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// randomGraph builds a connected-ish weighted graph for differential
// testing, with edge weights in [1, 9].
func randomGraph(n, extraEdges int, rng *rand.Rand) *graph.Graph {
	return randomGraphFrom(n, extraEdges, 1, rng)
}

// randomGraphFrom is randomGraph with edge weights in [lo, 9]; lo = 0
// makes about one edge in ten weigh zero.
func randomGraphFrom(n, extraEdges, lo int, rng *rand.Rand) *graph.Graph {
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(50))
	}
	g := graph.NewWithWeights(w)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(rng.Intn(i)), graph.Node(i), int64(lo+rng.Intn(10-lo)))
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), int64(lo+rng.Intn(10-lo)))
		}
	}
	return g
}

// checkAgainstScratch compares every maintained quantity of s with the
// from-scratch metrics implementations.
func checkAgainstScratch(t *testing.T, g *graph.Graph, s *State, c metrics.Constraints) {
	t.Helper()
	parts := s.Parts()
	k := s.K
	if got, want := s.Cut(), metrics.EdgeCut(g, parts); got != want {
		t.Fatalf("cut: incremental %d, scratch %d", got, want)
	}
	m := metrics.BandwidthMatrix(g, parts, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if s.Bandwidth(i, j) != m[i][j] {
				t.Fatalf("bw[%d][%d]: incremental %d, scratch %d", i, j, s.Bandwidth(i, j), m[i][j])
			}
		}
	}
	res := metrics.PartResources(g, parts, k)
	for p := 0; p < k; p++ {
		if s.Resource(p) != res[p] {
			t.Fatalf("res[%d]: incremental %d, scratch %d", p, s.Resource(p), res[p])
		}
	}
	sizes := metrics.PartSizes(parts, k)
	for p := 0; p < k; p++ {
		if s.Count(p) != sizes[p] {
			t.Fatalf("cnt[%d]: incremental %d, scratch %d", p, s.Count(p), sizes[p])
		}
	}
	var wantExcess int64
	for _, v := range metrics.CheckConstraints(g, parts, k, c) {
		wantExcess += v.Value - v.Limit
	}
	bwEx, resEx, _ := s.Excess()
	if bwEx+resEx != wantExcess {
		t.Fatalf("excess: incremental %d+%d, scratch %d", bwEx, resEx, wantExcess)
	}
	if got, want := s.Goodness(), metrics.Goodness(g, parts, k, c); got != want {
		t.Fatalf("goodness: incremental %v, scratch %v", got, want)
	}
	wantFeasible := metrics.Feasible(g, parts, k, c) && s.vecExcess == 0
	if s.Feasible() != wantFeasible {
		t.Fatalf("feasible: incremental %v, scratch %v", s.Feasible(), wantFeasible)
	}
}

func TestStateMatchesScratchUnderMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(40)
		g := randomGraphFrom(n, 2*n, 0, rng)
		k := 2 + rng.Intn(4)
		c := metrics.Constraints{}
		if rng.Intn(2) == 0 {
			c.Bmax = int64(1 + rng.Intn(60))
		}
		if rng.Intn(2) == 0 {
			c.Rmax = int64(20 + rng.Intn(200))
		}
		parts := make([]int, n)
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		s, err := New(g.ToCSR(), parts, Config{K: k, Constraints: c})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstScratch(t, g, s, c)
		for mv := 0; mv < 60; mv++ {
			s.Move(graph.Node(rng.Intn(n)), rng.Intn(k))
			checkAgainstScratch(t, g, s, c)
		}
	}
}

func TestUndoRestoresEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 30
	g := randomGraphFrom(n, 60, 0, rng)
	k := 4
	c := metrics.Constraints{Bmax: 25, Rmax: 220}
	parts := make([]int, n)
	for i := range parts {
		parts[i] = rng.Intn(k)
	}
	s, err := New(g.ToCSR(), parts, Config{K: k, Constraints: c})
	if err != nil {
		t.Fatal(err)
	}
	wantCut, wantGoodness := s.Cut(), s.Goodness()
	wantParts := append([]int(nil), s.Parts()...)
	for mv := 0; mv < 40; mv++ {
		s.Move(graph.Node(rng.Intn(n)), rng.Intn(k))
	}
	for s.Undo() {
	}
	if s.Moves() != 0 {
		t.Fatalf("log not drained: %d", s.Moves())
	}
	if s.Cut() != wantCut || s.Goodness() != wantGoodness {
		t.Fatalf("undo: cut %d goodness %v, want %d %v", s.Cut(), s.Goodness(), wantCut, wantGoodness)
	}
	for u, p := range s.Parts() {
		if p != wantParts[u] {
			t.Fatalf("undo: node %d in part %d, want %d", u, p, wantParts[u])
		}
	}
	checkAgainstScratch(t, g, s, c)
}

func TestVectorStateMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, k, dims := 25, 3, 2
	g := randomGraph(n, 50, rng)
	vectors := make([][]int64, n)
	for u := range vectors {
		vectors[u] = []int64{int64(rng.Intn(10)), int64(rng.Intn(6))}
	}
	vc := metrics.VectorConstraints{Rmax: []int64{40, 25}, PartCaps: [][]int64{{0, 12}}}
	parts := make([]int, n)
	for i := range parts {
		parts[i] = rng.Intn(k)
	}
	s, err := New(g.ToCSR(), parts, Config{
		K: k, Constraints: metrics.Constraints{Rmax: 300},
		Vectors: vectors, VectorConstraints: vc,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		totals := metrics.PartResourceVectors(vectors, s.Parts(), k)
		if s.Dims() != dims {
			t.Fatalf("dims = %d, want %d", s.Dims(), dims)
		}
		for p := 0; p < k; p++ {
			for d := 0; d < dims; d++ {
				if s.VectorTotal(p, d) != totals[p][d] {
					t.Fatalf("vec[%d][%d]: incremental %d, scratch %d",
						p, d, s.VectorTotal(p, d), totals[p][d])
				}
				if got, want := s.VectorLimit(p, d), vc.CapFor(p, d); got != want {
					t.Fatalf("vector limit[%d][%d]: state %d, constraints %d", p, d, got, want)
				}
			}
		}
		_, _, vecEx := s.Excess()
		if want := metrics.VectorExcess(vectors, s.Parts(), k, vc); vecEx != want {
			t.Fatalf("vector excess: incremental %d, scratch %d", vecEx, want)
		}
	}
	check()
	for mv := 0; mv < 80; mv++ {
		s.Move(graph.Node(rng.Intn(n)), rng.Intn(k))
		check()
	}
	for s.Undo() {
	}
	check()
}

func TestMoveDeltaPredictsApply(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n, k := 24, 4
	g := randomGraphFrom(n, 50, 0, rng)
	c := metrics.Constraints{Bmax: 18, Rmax: 150}
	parts := make([]int, n)
	for i := range parts {
		parts[i] = rng.Intn(k)
	}
	s, err := New(g.ToCSR(), parts, Config{K: k, Constraints: c})
	if err != nil {
		t.Fatal(err)
	}
	for mv := 0; mv < 100; mv++ {
		u := graph.Node(rng.Intn(n))
		to := rng.Intn(k)
		cd, bd, rd := s.MoveDelta(u, to)
		cut0 := s.Cut()
		bw0, res0, _ := s.Excess()
		s.Move(u, to)
		cut1 := s.Cut()
		bw1, res1, _ := s.Excess()
		if cut1-cut0 != cd || bw1-bw0 != bd || res1-res0 != rd {
			t.Fatalf("move %d->%d: predicted (%d,%d,%d), observed (%d,%d,%d)",
				u, to, cd, bd, rd, cut1-cut0, bw1-bw0, res1-res0)
		}
	}
}

func TestNewValidation(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	c := g.ToCSR()
	if _, err := New(c, []int{0, 1}, Config{K: 2}); err == nil {
		t.Fatal("short assignment accepted")
	}
	if _, err := New(c, []int{0, 1, 0}, Config{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := New(c, []int{0, 2, 0}, Config{K: 2}); err == nil {
		t.Fatal("out-of-range part accepted")
	}
	if _, err := New(c, []int{0, 1, 0}, Config{K: 2}); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

func TestMoveToSamePartIsNoop(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(2, 3, 3)
	s, err := New(g.ToCSR(), []int{0, 0, 1, 1}, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Move(0, 0)
	if s.Moves() != 0 {
		t.Fatalf("no-op move logged")
	}
	if s.Undo() {
		t.Fatal("undo succeeded on empty log")
	}
}
