package refine

import (
	"math/rand"
	"slices"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/pstate"
)

// kwayFMFullSweep is the reference k-way FM: every pass evaluates every
// node, gathering its connectivity through s.Connectivity and asking
// s.Fits of every candidate part in ascending id order. KWayFM must make
// the same moves in the same order. refused counts the positive-gain
// candidates s.Fits turned down.
func kwayFMFullSweep(s *pstate.State, maxPasses int) (st Stats, refused int) {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	st = Stats{CutBefore: s.Cut()}
	n := s.C.NumNodes()
	parts := s.Parts()
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes++
		moves := 0
		for u := 0; u < n; u++ {
			un := graph.Node(u)
			from := parts[u]
			if s.Count(from) == 1 {
				continue
			}
			conn := s.Connectivity(un)
			bestTo := -1
			var bestGain int64
			for to := range conn {
				if to == from || conn[to] == 0 {
					continue
				}
				if !s.Fits(un, to) {
					if conn[to] > conn[from] {
						refused++
					}
					continue
				}
				if gain := conn[to] - conn[from]; gain > bestGain {
					bestGain = gain
					bestTo = to
				}
			}
			if bestTo >= 0 {
				s.Move(un, bestTo)
				moves++
			}
		}
		s.ResetLog()
		st.Moves += moves
		if moves == 0 {
			break
		}
	}
	st.CutAfter = s.Cut()
	return st, refused
}

// kwayFMInstance draws one differential instance: a random graph of
// k..k+120 nodes in which about a fifth of the edges weigh zero, a start
// where some parts hold a single node, scalar caps drawn around the
// starting part totals (so s.Fits refuses moves), sometimes per part,
// and sometimes a vector table under tight per-kind bounds.
func kwayFMInstance(rng *rand.Rand, k int) (*graph.CSR, []int, pstate.Config) {
	n := k + rng.Intn(121)
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(30))
	}
	g := graph.NewWithWeights(w)
	edgeW := func() int64 {
		if rng.Intn(5) == 0 {
			return 0
		}
		return int64(1 + rng.Intn(20))
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(rng.Intn(i)), graph.Node(i), edgeW())
	}
	for i := rng.Intn(3 * n); i > 0; i-- {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), edgeW())
		}
	}
	// Node p starts in part p, so every part is non-empty; the rest go to
	// the parts not chosen as singletons.
	parts := make([]int, n)
	singles := rng.Intn(k)
	for u := range parts {
		if u < k {
			parts[u] = u
		} else {
			parts[u] = singles + rng.Intn(k-singles)
		}
	}
	res := make([]int64, k)
	for u, p := range parts {
		res[p] += w[u]
	}
	cfg := pstate.Config{K: k}
	if rng.Intn(4) != 0 {
		cfg.Constraints.Rmax = slices.Max(res) + int64(rng.Intn(40)) - 20
	}
	if rng.Intn(2) == 0 {
		cfg.Constraints.RmaxPart = make([]int64, k)
		for p := range cfg.Constraints.RmaxPart {
			if rng.Intn(4) != 0 {
				cfg.Constraints.RmaxPart[p] = res[p] + int64(rng.Intn(50)) - 10
			}
		}
	}
	if rng.Intn(3) == 0 {
		dims := 1 + rng.Intn(3)
		cfg.Vectors = make([][]int64, n)
		for u := range cfg.Vectors {
			cfg.Vectors[u] = make([]int64, dims)
			for d := range cfg.Vectors[u] {
				cfg.Vectors[u][d] = int64(rng.Intn(10))
			}
		}
		cfg.VectorConstraints.Rmax = make([]int64, dims)
		for d := range cfg.VectorConstraints.Rmax {
			cfg.VectorConstraints.Rmax[d] = int64(1 + rng.Intn(5*n/k+1))
		}
	}
	return g.ToCSR(), parts, cfg
}

// TestKWayFMMatchesFullSweep checks the active-node KWayFM against the
// full-sweep reference on 450 seeded instances with K from 2 to 16:
// the final parts, the Stats, the cut and the score must all agree. One
// workspace serves every instance, so stale pooled scratch would show.
func TestKWayFMMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ws := new(arena.Workspace)
	var moved, refusing int
	for trial := 0; trial < 450; trial++ {
		k := 2 + trial%15
		csr, parts, cfg := kwayFMInstance(rng, k)
		passes := rng.Intn(11) // 0 takes the default of 8
		want, err := pstate.New(csr, parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pstate.New(csr, parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wst, refused := kwayFMFullSweep(want, passes)
		gst := KWayFM(ws, got, passes)
		if gst != wst {
			t.Fatalf("trial %d (k=%d): stats %+v, want %+v", trial, k, gst, wst)
		}
		if !slices.Equal(got.Parts(), want.Parts()) {
			t.Fatalf("trial %d (k=%d): parts differ from the full sweep", trial, k)
		}
		if got.Cut() != want.Cut() || got.Score() != want.Score() {
			t.Fatalf("trial %d (k=%d): cut %d score %v, want %d %v",
				trial, k, got.Cut(), got.Score(), want.Cut(), want.Score())
		}
		if got.Moves() != 0 {
			t.Fatalf("trial %d: %d moves left in the undo log", trial, got.Moves())
		}
		if wst.Moves > 0 {
			moved++
		}
		if refused > 0 {
			refusing++
		}
	}
	// The instances must exercise both moves and refusals by s.Fits.
	if moved < 300 || refusing < 100 {
		t.Fatalf("weak instance mix: %d trials moved, %d saw s.Fits refuse a gain", moved, refusing)
	}
}
