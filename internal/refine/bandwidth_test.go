package refine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
)

// bwExcessOf computes the summed pairwise-bandwidth excess from scratch,
// the reference the incremental state is checked against.
func bwExcessOf(g *graph.Graph, parts []int, k int, bmax int64) int64 {
	bw := metrics.BandwidthMatrix(g, parts, k)
	var ex int64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if bw[i][j] > bmax {
				ex += bw[i][j] - bmax
			}
		}
	}
	return ex
}

func TestRepairStateMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 40)
	csr := g.ToCSR()
	k := 4
	parts := make([]int, 40)
	for i := range parts {
		parts[i] = rng.Intn(k)
	}
	s, err := pstate.New(csr, parts, pstate.Config{K: k, Constraints: metrics.Constraints{Bmax: 25}})
	if err != nil {
		t.Fatal(err)
	}
	// Apply a series of random moves and check incremental state equals a
	// from-scratch recomputation after each.
	for step := 0; step < 30; step++ {
		u := graph.Node(rng.Intn(40))
		to := rng.Intn(k)
		if to == s.Part(u) || s.Count(s.Part(u)) == 1 {
			continue
		}
		s.Move(u, to)
		copy(parts, s.Parts())
		want := metrics.BandwidthMatrix(g, parts, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if s.Bandwidth(i, j) != want[i][j] {
					t.Fatalf("step %d: bw[%d][%d] = %d, want %d", step, i, j, s.Bandwidth(i, j), want[i][j])
				}
			}
		}
		wantRes := metrics.PartResources(g, parts, k)
		for i := 0; i < k; i++ {
			if s.Resource(i) != wantRes[i] {
				t.Fatalf("step %d: res[%d] = %d, want %d", step, i, s.Resource(i), wantRes[i])
			}
		}
	}
}

func TestMoveDeltaMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(rng, 30)
	csr := g.ToCSR()
	k := 3
	var bmax int64 = 25
	parts := make([]int, 30)
	for i := range parts {
		parts[i] = rng.Intn(k)
	}
	s, err := pstate.New(csr, parts, pstate.Config{K: k, Constraints: metrics.Constraints{Bmax: bmax}})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		u := graph.Node(rng.Intn(30))
		to := rng.Intn(k)
		if to == s.Part(u) || s.Count(s.Part(u)) == 1 {
			continue
		}
		exBefore, _, _ := s.Excess()
		cutBefore := s.Cut()
		cd, ed, _ := s.MoveDelta(u, to)
		s.Move(u, to)
		copy(parts, s.Parts())
		exAfter, _, _ := s.Excess()
		if wantEx := bwExcessOf(g, parts, k, bmax); exAfter != wantEx {
			t.Fatalf("step %d: excess = %d, want %d", step, exAfter, wantEx)
		}
		cutAfter := metrics.EdgeCut(g, parts)
		if s.Cut() != cutAfter {
			t.Fatalf("step %d: cut = %d, want %d", step, s.Cut(), cutAfter)
		}
		if exAfter-exBefore != ed {
			t.Fatalf("step %d: excess delta predicted %d, actual %d", step, ed, exAfter-exBefore)
		}
		if cutAfter-cutBefore != cd {
			t.Fatalf("step %d: cut delta predicted %d, actual %d", step, cd, cutAfter-cutBefore)
		}
	}
}

func TestRepairBandwidthFixesViolation(t *testing.T) {
	// Two halves with a heavy bundle of edges between them; a third part
	// can absorb boundary nodes to split the traffic.
	g := graph.New(9)
	// Parts: 0 = {0,1,2}, 1 = {3,4,5}, 2 = {6,7,8}.
	parts := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	// Heavy traffic between parts 0 and 1 via nodes 2-3 and 1-4.
	g.MustAddEdge(2, 3, 10)
	g.MustAddEdge(1, 4, 10)
	// Light internal edges.
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	g.MustAddEdge(6, 7, 1)
	g.MustAddEdge(7, 8, 1)
	// Links so part 2 is adjacent to both.
	g.MustAddEdge(5, 6, 1)
	g.MustAddEdge(0, 8, 1)

	c := metrics.Constraints{Bmax: 12}
	if metrics.Feasible(g, parts, 3, c) {
		t.Fatal("test setup: expected initial violation")
	}
	var st BandwidthStats
	refineOn(t, g, parts, pstate.Config{K: 3, Constraints: c}, func(s *pstate.State) {
		st = RepairBandwidth(new(arena.Workspace), s, 0)
	})
	if !st.Feasible {
		t.Fatalf("repair failed: %+v, bw=%v", st, metrics.BandwidthMatrix(g, parts, 3))
	}
	if !metrics.Feasible(g, parts, 3, c) {
		t.Fatal("stats claim feasible but metrics disagree")
	}
	if st.Moves == 0 {
		t.Fatal("repair reported no moves despite fixing a violation")
	}
	if st.ExcessAfter != 0 || st.ExcessBefore <= 0 {
		t.Fatalf("excess accounting wrong: %+v", st)
	}
}

func TestRepairBandwidthNoopWhenFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 20)
	parts := make([]int, 20)
	for i := range parts {
		parts[i] = i % 2
	}
	huge := metrics.Constraints{Bmax: 1 << 40}
	var st, st2 BandwidthStats
	refineOn(t, g, parts, pstate.Config{K: 2, Constraints: huge}, func(s *pstate.State) {
		st = RepairBandwidth(new(arena.Workspace), s, 0)
	})
	if !st.Feasible || st.Moves != 0 {
		t.Fatalf("feasible input should be a no-op: %+v", st)
	}
	// Bmax <= 0 disables the pass entirely.
	refineOn(t, g, parts, pstate.Config{K: 2}, func(s *pstate.State) {
		st2 = RepairBandwidth(new(arena.Workspace), s, 0)
	})
	if !st2.Feasible || st2.Moves != 0 {
		t.Fatalf("unconstrained input should be a no-op: %+v", st2)
	}
}

func TestRepairBandwidthRespectsRmax(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(rng, 30)
		k := 3
		parts := make([]int, 30)
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		res := metrics.PartResources(g, parts, k)
		var rmax int64
		for _, r := range res {
			if r > rmax {
				rmax = r
			}
		}
		c := metrics.Constraints{Bmax: 10, Rmax: rmax}
		refineOn(t, g, parts, pstate.Config{K: k, Constraints: c}, func(s *pstate.State) {
			RepairBandwidth(new(arena.Workspace), s, 4)
		})
		for p, r := range metrics.PartResources(g, parts, k) {
			if r > rmax {
				t.Fatalf("trial %d: part %d resource %d > Rmax %d", trial, p, r, rmax)
			}
		}
	}
}

func TestRepairBandwidthNeverIncreasesExcess(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 10+rng.Intn(40))
		k := 2 + rng.Intn(4)
		parts := make([]int, g.NumNodes())
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		bmax := int64(1 + rng.Intn(30))
		c := metrics.Constraints{Bmax: bmax}
		before := bwExcessOf(g, parts, k, bmax)
		var st BandwidthStats
		refineOn(t, g, parts, pstate.Config{K: k, Constraints: c}, func(s *pstate.State) {
			st = RepairBandwidth(new(arena.Workspace), s, 4)
		})
		if st.ExcessBefore != before {
			return false
		}
		after := bwExcessOf(g, parts, k, bmax)
		return st.ExcessAfter == after && after <= before &&
			metrics.Validate(g, parts, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceResources(t *testing.T) {
	// Part 0 holds everything; rmax forces spreading across 3 parts.
	g := graph.NewWithWeights([]int64{10, 10, 10, 10, 10, 10})
	for i := 1; i < 6; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), 1)
	}
	parts := []int{0, 0, 0, 0, 1, 2}
	var moves int
	var ok bool
	refineOn(t, g, parts, pstate.Config{K: 3, Constraints: metrics.Constraints{Rmax: 20}}, func(s *pstate.State) {
		moves, ok = RebalanceResources(s, 0)
	})
	if !ok {
		t.Fatalf("rebalance failed; res=%v", metrics.PartResources(g, parts, 3))
	}
	if moves == 0 {
		t.Fatal("expected moves")
	}
	for p, r := range metrics.PartResources(g, parts, 3) {
		if r > 20 {
			t.Fatalf("part %d still overflows: %d", p, r)
		}
	}
}

func TestRebalanceResourcesImpossible(t *testing.T) {
	// One node heavier than rmax can never fit.
	g := graph.NewWithWeights([]int64{100, 1})
	g.MustAddEdge(0, 1, 1)
	parts := []int{0, 1}
	var ok bool
	refineOn(t, g, parts, pstate.Config{K: 2, Constraints: metrics.Constraints{Rmax: 50}}, func(s *pstate.State) {
		_, ok = RebalanceResources(s, 0)
	})
	if ok {
		t.Fatal("impossible instance reported balanced")
	}
}

func TestRebalanceResourcesNoopWhenFits(t *testing.T) {
	g := graph.NewWithWeights([]int64{5, 5})
	g.MustAddEdge(0, 1, 1)
	parts := []int{0, 1}
	var moves int
	var ok bool
	refineOn(t, g, parts, pstate.Config{K: 2, Constraints: metrics.Constraints{Rmax: 10}}, func(s *pstate.State) {
		moves, ok = RebalanceResources(s, 0)
	})
	if !ok || moves != 0 {
		t.Fatalf("fitting input should be a no-op: moves=%d ok=%v", moves, ok)
	}
	// rmax <= 0 disables the pass.
	refineOn(t, g, parts, pstate.Config{K: 2}, func(s *pstate.State) {
		moves, ok = RebalanceResources(s, 0)
	})
	if !ok || moves != 0 {
		t.Fatal("disabled pass should be a no-op")
	}
}

func TestPropertyRebalanceNeverOverflowsFittingParts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 10+rng.Intn(30))
		k := 2 + rng.Intn(3)
		parts := make([]int, g.NumNodes())
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		// Generous bound: total/k * 2.
		rmax := 2 * g.TotalNodeWeight() / int64(k)
		refineOn(t, g, parts, pstate.Config{K: k, Constraints: metrics.Constraints{Rmax: rmax}}, func(s *pstate.State) {
			RebalanceResources(s, 8)
		})
		return metrics.Validate(g, parts, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
