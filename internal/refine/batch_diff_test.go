package refine

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/pstate"
)

// batchKWayFullSweep is the reference batch pass: every round re-sweeps
// every node through denseConn and ranks the candidates with a full
// stable sort by (gain desc, node asc), then selects, applies and
// re-checks exactly as BatchKWay documents. BatchKWay, which re-sweeps
// only the dirty nodes and keeps an incremental bucket ranking, must make
// the same moves and report the same BatchStats (as with Record on).
// rejected counts the rounds the applied-state check undid.
func batchKWayFullSweep(s *pstate.State) (st BatchStats, rejected int) {
	s.ResetLog()
	n, k := s.C.NumNodes(), s.K
	if n == 0 || k <= 1 {
		return BatchStats{}, 0
	}
	st = BatchStats{CutBefore: s.Cut()}
	parts := s.Parts()
	cand := make([]int, n)
	gains := make([]int64, n)
	prevScore := s.Score()
	quotaDiv := 2 * k
rounds:
	for round := 0; round < batchMaxRounds; round++ {
		var order []int
		for u := 0; u < n; u++ {
			from := parts[u]
			conn := denseConn(s, graph.Node(u))
			cand[u] = -1
			var best int64
			for to := range conn {
				if gain := conn[to] - conn[from]; to != from && gain > best {
					best = gain
					cand[u] = to
				}
			}
			if cand[u] >= 0 {
				gains[u] = best
				order = append(order, u)
			}
		}
		if len(order) == 0 {
			break
		}
		sort.SliceStable(order, func(i, j int) bool { return gains[order[i]] > gains[order[j]] })
		for {
			quota := max(1, len(order)/quotaDiv)
			used := make([]int, k)
			blocked := make([]bool, n)
			sel := 0
			var gain int64
			for _, u := range order {
				un, to := graph.Node(u), cand[u]
				if blocked[u] || used[to] >= quota || s.Count(parts[u]) == 1 || !s.Fits(un, to) {
					continue
				}
				s.Move(un, to)
				used[to]++
				sel++
				gain += gains[u]
				adj, _ := s.C.Row(un)
				for _, v := range adj {
					blocked[v] = true
				}
			}
			if sel == 0 {
				break rounds
			}
			if score := s.Score(); score < prevScore {
				prevScore = score
				s.ResetLog()
				st.Rounds++
				st.Moves += sel
				st.RoundSizes = append(st.RoundSizes, sel)
				st.RoundGains = append(st.RoundGains, gain)
				st.RoundCands = append(st.RoundCands, len(order))
				st.RoundQuotas = append(st.RoundQuotas, quota)
				if sel*4 >= len(order) {
					quotaDiv = max(k, quotaDiv/2)
				} else if sel*32 < len(order) {
					quotaDiv = min(4*k, quotaDiv*2)
				}
				continue rounds
			}
			rejected++
			for s.Undo() {
			}
			if quotaDiv == 2*k {
				break rounds
			}
			quotaDiv = 2 * k
		}
	}
	st.CutAfter = s.Cut()
	return st, rejected
}

// batchInstance draws one differential instance with n in [k+30, k+330]:
// a random connected graph (about a tenth of the edges weigh zero) on a
// random start with every part non-empty, under constraint mode 0..3:
// none, a tight Rmax (the largest starting part total), a loose Rmax
// (half again the average part total) or per-part caps around the
// starting totals. Half the instances add a Bmax of at most about the
// average starting pair bandwidth and a third add a vector bound, so the
// applied-state check, which sees both and the gain sweep neither,
// rejects rounds.
func batchInstance(rng *rand.Rand, k, mode int) (*graph.CSR, []int, pstate.Config) {
	n := k + 30 + rng.Intn(301)
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(30))
	}
	g := graph.NewWithWeights(w)
	edgeW := func() int64 {
		if rng.Intn(10) == 0 {
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
	parts := randomKWayStart(rng, n, k)
	res := make([]int64, k)
	var total int64
	for u, p := range parts {
		res[p] += w[u]
		total += w[u]
	}
	cfg := pstate.Config{K: k}
	switch mode {
	case 1:
		cfg.Constraints.Rmax = slices.Max(res)
	case 2:
		cfg.Constraints.Rmax = 3 * total / int64(2*k)
	case 3:
		cfg.Constraints.RmaxPart = make([]int64, k)
		for p := range cfg.Constraints.RmaxPart {
			cfg.Constraints.RmaxPart[p] = res[p] + int64(rng.Intn(60)) - 20
		}
	}
	if rng.Intn(2) == 0 {
		cfg.Constraints.Bmax = 1 + rng.Int63n(2*g.TotalEdgeWeight()/int64(k*k)+1)
	}
	if rng.Intn(3) == 0 {
		cfg.Vectors = make([][]int64, n)
		for u := range cfg.Vectors {
			cfg.Vectors[u] = []int64{int64(rng.Intn(10))}
		}
		cfg.VectorConstraints.Rmax = []int64{int64(1 + rng.Intn(5*n/k+1))}
	}
	return g.ToCSR(), parts, cfg
}

// TestBatchKWayMatchesFullSweep checks BatchKWay against the full-sweep
// reference on 320 seeded instances with K from 2 to 8 under every
// constraint mode: the final parts, the BatchStats, the cut and the score
// must all agree. A stale candidate slot that the dirty flags missed would
// change a selection, so this pins the incremental re-sweep. One workspace
// serves every instance, so stale pooled scratch would show too.
func TestBatchKWayMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ws := new(arena.Workspace)
	var multiRound, rejecting int
	for trial := 0; trial < 320; trial++ {
		k := 2 + trial%7
		csr, parts, cfg := batchInstance(rng, k, trial%4)
		want, err := pstate.New(csr, parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pstate.New(csr, parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wst, rejected := batchKWayFullSweep(want)
		gst := BatchKWay(ws, got, BatchOptions{Record: true})
		if !reflect.DeepEqual(gst, wst) {
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
		if wst.Rounds >= 2 {
			multiRound++
		}
		if rejected > 0 {
			rejecting++
		}
	}
	// The incremental path only runs from the second round on, and the
	// re-check must both keep and reject rounds.
	if multiRound < 250 || rejecting < 60 {
		t.Fatalf("weak instance mix: %d trials ran 2+ rounds, %d saw a rejected round", multiRound, rejecting)
	}
}
