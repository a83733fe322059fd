package refine

import (
	"math/rand"
	"slices"
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
	g := randomConnectedFrom(rng, 40, 0)
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
	g := randomConnectedFrom(rng, 30, 0)
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

// repairBandwidthProbe is the reference bandwidth repair: RepairBandwidth
// with every (node, target) pair priced by a Move, a read of the state's
// cut and excess, and an Undo instead of a shared row and s.RowDelta.
func repairBandwidthProbe(s *pstate.State, maxPasses int) BandwidthStats {
	st := BandwidthStats{}
	st.ExcessBefore, _, _ = s.Excess()
	st.ExcessAfter = st.ExcessBefore
	if st.ExcessBefore == 0 {
		st.Feasible = true
		return st
	}
	defer s.ResetLog()
	n := s.C.NumNodes()
	moved := make([]bool, n)
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes++
		clear(moved)
		progressed := false
		for {
			var bestU graph.Node = -1
			bestTo := -1
			var bestExcess, bestCut int64
			for u := 0; u < n; u++ {
				un := graph.Node(u)
				from := s.Part(un)
				if moved[u] || s.Count(from) == 1 {
					continue
				}
				touches := false
				adj, _ := s.C.Row(un)
				for _, v := range adj {
					if p := s.Part(v); p != from && s.Bandwidth(from, p) > s.Bmax() {
						touches = true
					}
				}
				for to := 0; to < s.K && touches; to++ {
					if to == from || !s.Fits(un, to) {
						continue
					}
					ex0, _, _ := s.Excess()
					cut0 := s.Cut()
					s.Move(un, to)
					ex1, _, _ := s.Excess()
					ed, cd := ex1-ex0, s.Cut()-cut0
					s.Undo()
					if ed < bestExcess || (ed == bestExcess && ed < 0 && cd < bestCut) {
						bestU, bestTo, bestExcess, bestCut = un, to, ed, cd
					}
				}
			}
			if bestU < 0 || bestExcess >= 0 {
				break
			}
			s.Move(bestU, bestTo)
			moved[bestU] = true
			st.Moves++
			progressed = true
			st.ExcessAfter += bestExcess
			if st.ExcessAfter == 0 {
				st.Feasible = true
				return st
			}
		}
		if !progressed {
			break
		}
	}
	st.ExcessAfter, _, _ = s.Excess()
	st.Feasible = st.ExcessAfter == 0
	return st
}

// TestRepairBandwidthMatchesProbe checks RepairBandwidth against the
// probing reference on seeded instances with zero-weight edges, a Bmax
// below the starting pair bandwidths and every resource mode of
// batchInstance: the Stats, the final parts and the cut must agree.
func TestRepairBandwidthMatchesProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ws := new(arena.Workspace)
	repaired := 0
	for trial := 0; trial < 60; trial++ {
		k := 2 + trial%7
		csr, parts, cfg := batchInstance(rng, k, trial%4)
		cfg.Constraints.Bmax = 1 + rng.Int63n(csr.EdgeWT/int64(k*k)+1)
		passes := 1 + rng.Intn(16)
		want, err := pstate.New(csr, parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pstate.New(csr, parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wst := repairBandwidthProbe(want, passes)
		gst := RepairBandwidth(ws, got, passes)
		if gst != wst {
			t.Fatalf("trial %d (k=%d): stats %+v, want %+v", trial, k, gst, wst)
		}
		if !slices.Equal(got.Parts(), want.Parts()) || got.Cut() != want.Cut() {
			t.Fatalf("trial %d (k=%d): parts or cut differ from the probe (cut %d, want %d)",
				trial, k, got.Cut(), want.Cut())
		}
		if wst.Moves > 0 {
			repaired++
		}
	}
	if repaired < 30 {
		t.Fatalf("weak instance mix: only %d of 60 trials moved a node", repaired)
	}
}
