package refine

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ppnpart/internal/arena"
	"ppnpart/internal/exact"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
)

// refineOn builds a partition state over g from parts, runs stage on it,
// checks the stage left the undo log empty, and copies the refined
// assignment back into parts.
func refineOn(tb testing.TB, g *graph.Graph, parts []int, cfg pstate.Config, stage func(s *pstate.State)) {
	tb.Helper()
	s, err := pstate.New(g.ToCSR(), parts, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	stage(s)
	if n := s.Moves(); n != 0 {
		tb.Fatalf("stage left %d moves in the undo log", n)
	}
	copy(parts, s.Parts())
}

// twoClusters builds two dense clusters of size sz joined by one light
// bridge; the optimal bisection separates the clusters.
func twoClusters(sz int) *graph.Graph {
	g := graph.New(2 * sz)
	for c := 0; c < 2; c++ {
		base := c * sz
		for i := 0; i < sz; i++ {
			for j := i + 1; j < sz; j++ {
				g.MustAddEdge(graph.Node(base+i), graph.Node(base+j), 10)
			}
		}
	}
	g.MustAddEdge(0, graph.Node(sz), 1)
	return g
}

func randomConnected(rng *rand.Rand, n int) *graph.Graph { return randomConnectedFrom(rng, n, 1) }

// randomConnectedFrom draws a connected graph with node weights in
// [1, 20] and edge weights in [lo, 15]; lo = 0 makes about one edge in
// sixteen weigh zero.
func randomConnectedFrom(rng *rand.Rand, n int, lo int) *graph.Graph {
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(20))
	}
	g := graph.NewWithWeights(w)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.Node(i-1), graph.Node(i), int64(lo+rng.Intn(16-lo)))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), int64(lo+rng.Intn(16-lo)))
		}
	}
	return g
}

func TestFMBisectFindsClusterSplit(t *testing.T) {
	g := twoClusters(8)
	// Adversarial start: interleaved assignment. FM runs with a slack-1
	// balance bound, the configuration the multilevel driver always uses;
	// unbounded FM is known to collapse to a near-empty side and stall
	// (the original motivation for FM's balance criterion).
	parts := make([]int, g.NumNodes())
	for i := range parts {
		parts[i] = i % 2
	}
	st := FMBisectWS(new(arena.Workspace), g.ToCSR(), parts, 9, 0)
	if st.CutAfter != 1 {
		t.Fatalf("cut after FM = %d, want 1 (bridge only); stats %+v", st.CutAfter, st)
	}
	if st.CutAfter >= st.CutBefore {
		t.Fatal("FM should report improvement")
	}
	if got := metrics.EdgeCut(g, parts); got != st.CutAfter {
		t.Fatalf("reported cut %d != recomputed %d", st.CutAfter, got)
	}
	sizes := metrics.PartSizes(parts, 2)
	if sizes[0] != 8 || sizes[1] != 8 {
		t.Fatalf("balance bound violated: %v", sizes)
	}
}

func TestFMBisectRespectsResourceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(rng, 40)
		parts := make([]int, 40)
		for i := range parts {
			parts[i] = rng.Intn(2)
		}
		// Bound at current max side so FM may move but never overflow.
		r := metrics.PartResources(g, parts, 2)
		rmax := r[0]
		if r[1] > rmax {
			rmax = r[1]
		}
		FMBisectWS(new(arena.Workspace), g.ToCSR(), parts, rmax, 0)
		after := metrics.PartResources(g, parts, 2)
		if after[0] > rmax || after[1] > rmax {
			t.Fatalf("trial %d: FM overflowed resource bound %d: %v", trial, rmax, after)
		}
	}
}

func TestFMBisectNeverEmptiesASide(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 100)
	g.MustAddEdge(1, 2, 100)
	parts := []int{0, 1, 1}
	// Merging everything into one side would zero the cut, but a bisection
	// must keep both sides non-empty.
	FMBisectWS(new(arena.Workspace), g.ToCSR(), parts, 0, 0)
	sizes := metrics.PartSizes(parts, 2)
	if sizes[0] == 0 || sizes[1] == 0 {
		t.Fatalf("FM emptied a side: %v", sizes)
	}
}

func TestFMBisectNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(rng, 30+rng.Intn(40))
		parts := make([]int, g.NumNodes())
		for i := range parts {
			parts[i] = rng.Intn(2)
		}
		before := metrics.EdgeCut(g, parts)
		st := FMBisectWS(new(arena.Workspace), g.ToCSR(), parts, 0, 0)
		after := metrics.EdgeCut(g, parts)
		if after > before {
			t.Fatalf("trial %d: FM worsened cut %d -> %d", trial, before, after)
		}
		if st.CutBefore != before || st.CutAfter != after {
			t.Fatalf("trial %d: stats mismatch %+v vs %d->%d", trial, st, before, after)
		}
	}
}

// TestFMBisectNeverBeatsExactOptimum checks FM against the exact branch
// and bound on small seeded instances: FM's bisection is always a feasible
// point of the exact problem (both sides non-empty, and within the side
// bound when one is set and the start respects it), so its cut can never
// fall below the proven optimum — a lower cut would mean FM's incremental
// gain bookkeeping mis-reports the cut.
func TestFMBisectNeverBeatsExactOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(11) // 4..14 nodes
		g := randomConnected(rng, n)
		parts := make([]int, n)
		for i := range parts {
			parts[i] = i % 2
		}
		var bound int64
		if trial%2 == 1 {
			r := metrics.PartResources(g, parts, 2)
			bound = max(r[0], r[1])
		}
		st := FMBisectWS(new(arena.Workspace), g.ToCSR(), parts, bound, 0)
		if got := metrics.EdgeCut(g, parts); got != st.CutAfter {
			t.Fatalf("trial %d: reported cut %d != recomputed %d", trial, st.CutAfter, got)
		}
		opt, err := exact.Solve(g, exact.Options{K: 2, Constraints: metrics.Constraints{Rmax: bound}})
		if err != nil {
			t.Fatal(err)
		}
		if !opt.Feasible || !opt.Proven {
			t.Fatalf("trial %d: exact found no proven optimum for a feasible FM result", trial)
		}
		if st.CutAfter < opt.Cut {
			t.Fatalf("trial %d (n=%d, bound %d): FM cut %d below the exact optimum %d",
				trial, n, bound, st.CutAfter, opt.Cut)
		}
	}
}

func TestKWayFMImprovesAndRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		g := randomConnected(rng, 60)
		k := 2 + rng.Intn(4)
		parts := make([]int, 60)
		for i := range parts {
			parts[i] = rng.Intn(k)
		}
		before := metrics.EdgeCut(g, parts)
		res := metrics.PartResources(g, parts, k)
		var rmax int64
		for _, r := range res {
			if r > rmax {
				rmax = r
			}
		}
		var st Stats
		refineOn(t, g, parts, pstate.Config{K: k, Constraints: metrics.Constraints{Rmax: rmax}}, func(s *pstate.State) {
			st = KWayFM(new(arena.Workspace), s, 0)
		})
		after := metrics.EdgeCut(g, parts)
		if after > before {
			t.Fatalf("trial %d: k-way FM worsened cut", trial)
		}
		if st.CutAfter != after {
			t.Fatalf("trial %d: stats cut mismatch", trial)
		}
		for i, r := range metrics.PartResources(g, parts, k) {
			if r > rmax {
				t.Fatalf("trial %d: part %d overflowed: %d > %d", trial, i, r, rmax)
			}
		}
		if err := metrics.Validate(g, parts, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestKWayFMKeepsPartsNonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomConnected(rng, 30)
	k := 5
	parts := make([]int, 30)
	for i := range parts {
		parts[i] = i % k
	}
	refineOn(t, g, parts, pstate.Config{K: k}, func(s *pstate.State) { KWayFM(new(arena.Workspace), s, 0) })
	for p, s := range metrics.PartSizes(parts, k) {
		if s == 0 {
			t.Fatalf("part %d emptied", p)
		}
	}
}

func TestPropertyFMPreservesAssignmentValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, 10+rng.Intn(50))
		parts := make([]int, g.NumNodes())
		for i := range parts {
			parts[i] = rng.Intn(2)
		}
		FMBisectWS(new(arena.Workspace), g.ToCSR(), parts, 0, 3)
		if metrics.Validate(g, parts, 2) != nil {
			return false
		}
		k := 2 + rng.Intn(4)
		kparts := make([]int, g.NumNodes())
		for i := range kparts {
			kparts[i] = rng.Intn(k)
		}
		refineOn(t, g, kparts, pstate.Config{K: k}, func(s *pstate.State) { KWayFM(new(arena.Workspace), s, 3) })
		return metrics.Validate(g, kparts, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// klAggregateCut is Kernighan–Lin's summed cut over the 20 instances of
// TestPropertyFMAtLeastAsGoodAsKLOnBalancedStarts (default 4 passes from
// the same alternating starts), measured when KL still lived here as the
// historical pair-swap baseline. It keeps the FM-versus-KL comparison
// without carrying an O(n²) implementation nothing else calls.
const klAggregateCut = 2671

func TestPropertyFMAtLeastAsGoodAsKLOnBalancedStarts(t *testing.T) {
	// Not a strict theorem, but FM with hill-climbing and rollback should
	// rarely lose to KL's exact-bisection swaps on the same instances; we
	// assert the aggregate over several seeds to avoid flakes from
	// individual cases.
	rng := rand.New(rand.NewSource(99))
	var fmTotal int64
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(rng, 26)
		parts := make([]int, 26)
		for i := range parts {
			parts[i] = i % 2
		}
		FMBisectWS(new(arena.Workspace), g.ToCSR(), parts, 0, 0)
		fmTotal += metrics.EdgeCut(g, parts)
	}
	if fmTotal > klAggregateCut*11/10 {
		t.Fatalf("FM aggregate cut %d much worse than KL %d", fmTotal, klAggregateCut)
	}
}

// TestKWayFMSelectionRules pins k-way FM's move choice on a hand-built
// instance (unit node weights, part 3 capped at its one node):
//   - node 0 ties parts 1 and 2 at gain 1 and goes to the lowest id, 1;
//   - nodes 1 and 5 have gain 0 and stay: only strictly positive gains move;
//   - node 2's best destination, part 3, is at its cap, so it takes the
//     next best, part 1;
//   - nodes 6 and 7 are alone in parts 2 and 3 and never move, despite
//     positive gains.
func TestKWayFMSelectionRules(t *testing.T) {
	g := graph.New(8)
	g.MustAddEdge(0, 4, 2)
	g.MustAddEdge(0, 6, 2)
	g.MustAddEdge(0, 3, 1)
	g.MustAddEdge(1, 3, 3)
	g.MustAddEdge(1, 5, 3)
	g.MustAddEdge(2, 7, 5)
	g.MustAddEdge(2, 5, 3)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 7, 5)
	parts := []int{0, 0, 0, 0, 1, 1, 2, 3}
	cons := metrics.Constraints{RmaxPart: []int64{100, 100, 100, 1}}
	var st Stats
	refineOn(t, g, parts, pstate.Config{K: 4, Constraints: cons}, func(s *pstate.State) {
		st = KWayFM(new(arena.Workspace), s, 0)
	})
	if want := []int{1, 0, 1, 0, 1, 1, 2, 3}; !slices.Equal(parts, want) {
		t.Fatalf("parts = %v, want %v", parts, want)
	}
	if st.Moves != 2 || st.Passes != 2 {
		t.Fatalf("stats %+v, want 2 moves over 2 passes", st)
	}
	if got := metrics.EdgeCut(g, parts); st.CutAfter != got || st.CutBefore-got != 3 {
		t.Fatalf("stats %+v disagree with recomputed cut %d (gain 1 + 2 expected)", st, got)
	}
}

// fmBisectReference is the bisection FM as it stood before it moved onto
// pstate: it recounts the side totals and counts every pass, keeps its
// own move log, rolls back by hand and sums the cut from the rows.
// FMBisectWS must make the same moves and report the same Stats.
func fmBisectReference(csr *graph.CSR, parts []int, maxResource int64, maxPasses int) Stats {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	n := csr.NumNodes()
	var cur int64
	for u := 0; u < n; u++ {
		adj, wts := csr.Row(graph.Node(u))
		for i, v := range adj {
			if graph.Node(u) < v && parts[u] != parts[v] {
				cur += wts[i]
			}
		}
	}
	st := Stats{CutBefore: cur}
	for pass := 0; pass < maxPasses; pass++ {
		st.Passes++
		var res [2]int64
		var cnt [2]int
		for u := 0; u < n; u++ {
			res[parts[u]] += csr.NodeW[u]
			cnt[parts[u]]++
		}
		pq := NewGainQueue(new(arena.Workspace), n)
		gains := make([]int64, n)
		for u := 0; u < n; u++ {
			adj, wts := csr.Row(graph.Node(u))
			for i, v := range adj {
				if parts[v] == parts[u] {
					gains[u] -= wts[i]
				} else {
					gains[u] += wts[i]
				}
			}
			pq.Push(graph.Node(u), gains[u])
		}
		locked := make([]bool, n)
		type move struct {
			node graph.Node
			from int
		}
		var seq []move
		cut, bestCut, bestLen := cur, cur, 0
		for pq.Len() > 0 {
			var chosen graph.Node = -1
			var skipped []graph.Node
			for pq.Len() > 0 {
				u, _ := pq.Pop()
				from := parts[u]
				if maxResource > 0 && res[1-from]+csr.NodeW[u] > maxResource || cnt[from] == 1 {
					skipped = append(skipped, u)
					continue
				}
				chosen = u
				break
			}
			for _, s := range skipped {
				pq.Push(s, gains[s])
			}
			if chosen < 0 {
				break
			}
			u := chosen
			from := parts[u]
			to := 1 - from
			cut -= gains[u]
			parts[u] = to
			res[from] -= csr.NodeW[u]
			res[to] += csr.NodeW[u]
			cnt[from]--
			cnt[to]++
			locked[u] = true
			seq = append(seq, move{u, from})
			adj, wts := csr.Row(u)
			for i, v := range adj {
				if locked[v] {
					continue
				}
				delta := 2 * wts[i]
				if parts[v] == to {
					delta = -delta
				}
				gains[v] += delta
				pq.Adjust(v, delta)
			}
			if cut < bestCut {
				bestCut, bestLen = cut, len(seq)
			}
		}
		for i := len(seq) - 1; i >= bestLen; i-- {
			parts[seq[i].node] = seq[i].from
		}
		improved := bestCut < cur
		cur = bestCut
		st.Moves += bestLen
		if !improved {
			break
		}
	}
	st.CutAfter = cur
	return st
}

// fmBisectInstance draws one differential instance: a random graph of
// 2..81 nodes in which about a fifth of the edges weigh zero, a random
// start or one with a single node on side 0, a side bound that is
// disabled (zero or negative), tight (the larger starting side, or
// below it), or loose, and 0..8 passes.
func fmBisectInstance(rng *rand.Rand) (*graph.CSR, []int, int64, int) {
	n := 2 + rng.Intn(80)
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
		if rng.Intn(6) != 0 {
			g.MustAddEdge(graph.Node(rng.Intn(i)), graph.Node(i), edgeW())
		}
	}
	for i := rng.Intn(3 * n); i > 0; i-- {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.MustAddEdge(graph.Node(u), graph.Node(v), edgeW())
		}
	}
	parts := make([]int, n)
	if rng.Intn(4) == 0 {
		for i := range parts {
			parts[i] = 1
		}
		parts[rng.Intn(n)] = 0
	} else {
		for i := range parts {
			parts[i] = rng.Intn(2)
		}
	}
	var side [2]int64
	for u, p := range parts {
		side[p] += w[u]
	}
	var bound int64
	switch rng.Intn(5) {
	case 0:
		bound = 0
	case 1:
		bound = -int64(1 + rng.Intn(10))
	case 2:
		bound = max(side[0], side[1])
	case 3:
		bound = g.TotalNodeWeight()/2 + int64(rng.Intn(10))
	default:
		bound = g.TotalNodeWeight()
	}
	return g.ToCSR(), parts, bound, rng.Intn(9)
}

// TestFMBisectMatchesReference checks FMBisectWS against the reference
// pass on seeded instances: the same final assignment and the same Stats,
// with one workspace reused across instances.
func TestFMBisectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ws := new(arena.Workspace)
	for trial := 0; trial < 400; trial++ {
		csr, parts, bound, passes := fmBisectInstance(rng)
		want := slices.Clone(parts)
		wantSt := fmBisectReference(csr, want, bound, passes)
		gotSt := FMBisectWS(ws, csr, parts, bound, passes)
		if gotSt != wantSt || !slices.Equal(parts, want) {
			t.Fatalf("trial %d (n=%d, bound %d, passes %d): stats %+v parts %v, reference %+v parts %v",
				trial, csr.NumNodes(), bound, passes, gotSt, parts, wantSt, want)
		}
	}
}
