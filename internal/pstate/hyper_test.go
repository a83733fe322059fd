package pstate

import (
	"math"
	"math/rand"
	"testing"

	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// replicateChecked commits Replicate(u, p) after pricing it with the
// read-only queries, and fails unless ReplicaDelta equals the Objective
// change and ReplicaScore is bit-identical to the Score that follows.
func replicateChecked(t *testing.T, s *State, u graph.Node, p int) {
	t.Helper()
	obj := s.Objective()
	delta := s.ReplicaDelta(u, p)
	score := s.ReplicaScore(u, p, delta)
	s.Replicate(u, p)
	if got := s.Objective() - obj; got != delta {
		t.Fatalf("ReplicaDelta(%d, %d) = %d, Replicate changed the objective by %d", u, p, delta, got)
	}
	if got := s.Score(); math.Float64bits(got) != math.Float64bits(score) {
		t.Fatalf("ReplicaScore(%d, %d) = %v, Score after Replicate = %v", u, p, score, got)
	}
}

// randomHyperGraph extends randomGraph with nets whose first pin is the
// writer, mirroring the PPN fanout lowering.
func randomHyperGraph(n, extraEdges, nets int, rng *rand.Rand) *graph.Graph {
	g := randomGraph(n, extraEdges, rng)
	for e := 0; e < nets; e++ {
		fan := 2 + rng.Intn(3)
		perm := rng.Perm(n)
		pins := make([]graph.Node, 0, fan+1)
		for _, v := range perm[:fan+1] {
			pins = append(pins, graph.Node(v))
		}
		g.MustAddHyperEdge(pins, int64(1+rng.Intn(9)))
	}
	return g
}

// scratchHyperGoodness composes the from-scratch goodness for a graph with
// hyperedges active (no replicas): objective = pairwise cut + connectivity
// cost, penalty base from metrics.HyperPenaltyBase.
func scratchHyperGoodness(g *graph.Graph, parts []int, k int, c metrics.Constraints) float64 {
	obj := metrics.EdgeCut(g, parts) + metrics.HyperCut(g, parts)
	var excess int64
	for _, v := range metrics.CheckConstraints(g, parts, k, c) {
		excess += v.Value - v.Limit
	}
	if excess == 0 {
		return float64(obj)
	}
	base := metrics.HyperPenaltyBase(g, k)
	return base + float64(excess)*base + float64(obj)
}

// checkHyperAgainstScratch compares every replication-aware maintained
// quantity of s with the from-scratch metrics implementations.
func checkHyperAgainstScratch(t *testing.T, g *graph.Graph, s *State, c metrics.Constraints) {
	t.Helper()
	parts, reps, k := s.Parts(), s.Replicas(), s.K
	if got, want := s.Cut(), metrics.ReplicatedEdgeCut(g, parts, reps); got != want {
		t.Fatalf("cut: incremental %d, scratch %d (replicas %d)", got, want, s.NumReplicas())
	}
	if got, want := s.HyperCut(), metrics.ReplicatedHyperCut(g, parts, reps); got != want {
		t.Fatalf("hcut: incremental %d, scratch %d (replicas %d)", got, want, s.NumReplicas())
	}
	if got, want := s.Objective(), s.Cut()+s.HyperCut(); got != want {
		t.Fatalf("objective: %d, want cut+hcut = %d", got, want)
	}
	res := metrics.ReplicatedPartResources(g, parts, reps, k)
	var wantResEx int64
	for p := 0; p < k; p++ {
		if s.Resource(p) != res[p] {
			t.Fatalf("res[%d]: incremental %d, scratch %d", p, s.Resource(p), res[p])
		}
		lim := max(c.RmaxFor(p), 0)
		if s.Limit(p) != lim {
			t.Fatalf("limit[%d]: state %d, constraints %d", p, s.Limit(p), lim)
		}
		if lim > 0 && res[p] > lim {
			wantResEx += res[p] - lim
		}
	}
	if _, resEx, _ := s.Excess(); resEx != wantResEx {
		t.Fatalf("resource excess: incremental %d, scratch %d", resEx, wantResEx)
	}
	if s.NumReplicas() == 0 {
		if got, want := s.HyperCut(), metrics.HyperCut(g, parts); got != want {
			t.Fatalf("unreplicated hcut: incremental %d, scratch %d", got, want)
		}
		if c.RmaxPart == nil {
			if got, want := s.Goodness(), scratchHyperGoodness(g, parts, k, c); got != want {
				t.Fatalf("goodness: incremental %v, scratch %v", got, want)
			}
		}
	}
}

func TestHyperStateMatchesScratchUnderMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.Intn(30)
		g := randomHyperGraph(n, 2*n, 2+rng.Intn(8), rng)
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
		checkHyperAgainstScratch(t, g, s, c)
		for mv := 0; mv < 50; mv++ {
			s.Move(graph.Node(rng.Intn(n)), rng.Intn(k))
			checkHyperAgainstScratch(t, g, s, c)
		}
		for s.Undo() {
		}
		checkHyperAgainstScratch(t, g, s, c)
	}
}

func TestReplicateMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(25)
		g := randomHyperGraph(n, 2*n, 3+rng.Intn(6), rng)
		k := 2 + rng.Intn(4)
		c := metrics.Constraints{Rmax: int64(50 + rng.Intn(400))}
		if trial%3 == 0 {
			// Heterogeneous caps: replicas must charge the per-part limit.
			c.RmaxPart = make([]int64, k)
			for p := range c.RmaxPart {
				c.RmaxPart[p] = int64(40 + rng.Intn(400))
			}
		}
		parts := make([]int, n)
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		s, err := New(g.ToCSR(), parts, Config{K: k, Constraints: c})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 40; step++ {
			switch {
			case rng.Intn(4) == 0:
				s.Undo()
			default:
				u := graph.Node(rng.Intn(n))
				p := rng.Intn(k)
				if p != s.Part(u) && s.Replica(u) < 0 {
					replicateChecked(t, s, u, p)
				}
			}
			checkHyperAgainstScratch(t, g, s, c)
		}
		for s.Undo() {
		}
		if s.NumReplicas() != 0 {
			t.Fatalf("replicas survived full undo: %d", s.NumReplicas())
		}
		checkHyperAgainstScratch(t, g, s, c)
	}
}

func TestReplicateUndoRestoresEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n, k := 24, 4
	g := randomHyperGraph(n, 50, 6, rng)
	c := metrics.Constraints{Bmax: 40, Rmax: 300}
	parts := make([]int, n)
	for i := range parts {
		parts[i] = rng.Intn(k)
	}
	s, err := New(g.ToCSR(), parts, Config{K: k, Constraints: c})
	if err != nil {
		t.Fatal(err)
	}
	wantCut, wantHCut, wantGoodness := s.Cut(), s.HyperCut(), s.Goodness()
	wantParts := append([]int(nil), s.Parts()...)
	for mv := 0; mv < 30; mv++ {
		s.Move(graph.Node(rng.Intn(n)), rng.Intn(k))
	}
	// The log orders replications after moves, so Undo dissolves the
	// overlay first and then revisits the moves.
	for rep := 0; rep < 10; rep++ {
		u := graph.Node(rng.Intn(n))
		p := rng.Intn(k)
		if p != s.Part(u) && s.Replica(u) < 0 {
			s.Replicate(u, p)
		}
	}
	for s.Undo() {
	}
	if s.Moves() != 0 || s.NumReplicas() != 0 {
		t.Fatalf("log not drained: %d moves, %d replicas", s.Moves(), s.NumReplicas())
	}
	if s.Cut() != wantCut || s.HyperCut() != wantHCut || s.Goodness() != wantGoodness {
		t.Fatalf("undo: cut %d hcut %d goodness %v, want %d %d %v",
			s.Cut(), s.HyperCut(), s.Goodness(), wantCut, wantHCut, wantGoodness)
	}
	for u, p := range s.Parts() {
		if p != wantParts[u] {
			t.Fatalf("undo: node %d in part %d, want %d", u, p, wantParts[u])
		}
	}
	checkHyperAgainstScratch(t, g, s, c)
}

func TestReplicateVectorTotalsMatchScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n, k, dims := 20, 3, 2
	g := randomHyperGraph(n, 40, 5, rng)
	vectors := make([][]int64, n)
	for u := range vectors {
		vectors[u] = []int64{int64(rng.Intn(10)), int64(rng.Intn(6))}
	}
	vc := metrics.VectorConstraints{Rmax: []int64{60, 40}}
	parts := make([]int, n)
	for i := range parts {
		parts[i] = rng.Intn(k)
	}
	s, err := New(g.ToCSR(), parts, Config{
		K: k, Constraints: metrics.Constraints{Rmax: 500},
		Vectors: vectors, VectorConstraints: vc,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		totals := metrics.ReplicatedPartVectors(vectors, s.Parts(), s.Replicas(), k)
		for p := 0; p < k; p++ {
			for d := 0; d < dims; d++ {
				if s.vecTotals[p*dims+d] != totals[p][d] {
					t.Fatalf("vec[%d][%d]: incremental %d, scratch %d",
						p, d, s.vecTotals[p*dims+d], totals[p][d])
				}
			}
		}
	}
	check()
	for rep := 0; rep < 12; rep++ {
		u := graph.Node(rng.Intn(n))
		p := rng.Intn(k)
		if p != s.Part(u) && s.Replica(u) < 0 {
			s.Replicate(u, p)
		}
		check()
	}
	for s.Undo() {
	}
	check()
}

func TestMovePanicsWhileReplicated(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomHyperGraph(10, 15, 3, rng)
	parts := make([]int, 10)
	for i := range parts {
		parts[i] = i % 2
	}
	s, err := New(g.ToCSR(), parts, Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Replicate(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Move with live replicas did not panic")
		}
	}()
	s.Move(graph.Node(1), 0)
}

// FuzzHyperPState drives a hyperedge-carrying State with a fuzz-chosen
// graph, nets, partition and move/replicate/undo sequence, cross-checking
// the maintained cut, connectivity cost and resource totals against the
// replication-aware metrics recomputes after every step.
func FuzzHyperPState(f *testing.F) {
	f.Add([]byte{10, 3, 2, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add([]byte{6, 2, 1, 0, 9, 9, 9, 1, 0, 255, 254, 3, 17, 80})
	f.Add([]byte{14, 4, 3, 50, 200, 100, 30, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := int(data[0]%24) + 4
		k := int(data[1]%4) + 2
		nets := int(data[2]%6) + 1
		var c metrics.Constraints
		if data[3]%2 != 0 {
			c.Rmax = int64(data[3])%150 + 10
		}
		data = data[4:]

		g := graph.New(n)
		for i := 1; i < n; i++ {
			g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(i%5)+1)
		}
		i := 0
		for ; i+2 < len(data) && i < 3*n; i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				g.MustAddEdge(graph.Node(u), graph.Node(v), int64(data[i+2]%9)+1)
			}
		}
		data = data[i:]
		// Deterministic nets derived from the fuzz-chosen sizes: pin 0 is
		// the writer, pins are distinct by construction.
		for e := 0; e < nets; e++ {
			fan := 2 + e%3
			if fan+1 > n {
				fan = n - 1
			}
			pins := make([]graph.Node, 0, fan+1)
			for j := 0; j <= fan; j++ {
				pins = append(pins, graph.Node((e*5+j*3)%n))
			}
			seen := make(map[graph.Node]bool, len(pins))
			ok := true
			for _, p := range pins {
				if seen[p] {
					ok = false
					break
				}
				seen[p] = true
			}
			if ok {
				g.MustAddHyperEdge(pins, int64(e%7)+1)
			}
		}

		parts := make([]int, n)
		for u := range parts {
			if u < len(data) {
				parts[u] = int(data[u]) % k
			}
		}
		if len(data) > n {
			data = data[n:]
		} else {
			data = nil
		}

		s, err := New(g.ToCSR(), parts, Config{K: k, Constraints: c})
		if err != nil {
			t.Fatalf("New rejected valid input: %v", err)
		}
		check := func() {
			reps := s.Replicas()
			if got, want := s.Cut(), metrics.ReplicatedEdgeCut(g, s.Parts(), reps); got != want {
				t.Fatalf("cut diverged: incremental %d, scratch %d", got, want)
			}
			if got, want := s.HyperCut(), metrics.ReplicatedHyperCut(g, s.Parts(), reps); got != want {
				t.Fatalf("hcut diverged: incremental %d, scratch %d", got, want)
			}
			res := metrics.ReplicatedPartResources(g, s.Parts(), reps, k)
			for p := 0; p < k; p++ {
				if s.Resource(p) != res[p] {
					t.Fatalf("res[%d] diverged: %d vs %d", p, s.Resource(p), res[p])
				}
			}
		}
		check()
		for j := 0; j+1 < len(data); j += 2 {
			switch data[j] % 6 {
			case 5:
				s.Undo()
			case 4:
				u := graph.Node(int(data[j+1]) % n)
				p := int(data[j]) % k
				if p != s.Part(u) && s.Replica(u) < 0 {
					replicateChecked(t, s, u, p)
				}
			default:
				if s.NumReplicas() == 0 {
					s.Move(graph.Node(int(data[j])%n), int(data[j+1])%k)
				}
			}
			check()
		}
		for s.Undo() {
		}
		if s.NumReplicas() != 0 {
			t.Fatalf("replicas survived full undo: %d", s.NumReplicas())
		}
		check()
	})
}
