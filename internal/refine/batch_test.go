package refine

import (
	"math/rand"
	"reflect"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
)

// randomKWayStart assigns every node a random part but guarantees each of
// the k parts is non-empty (the batch pass, like KWayFM, promises never to
// empty a part — the promise is vacuous on starts that already have one).
func randomKWayStart(rng *rand.Rand, n, k int) []int {
	parts := make([]int, n)
	for i := range parts {
		parts[i] = rng.Intn(k)
	}
	// Pin parts 0..k-1 onto distinct nodes so no part starts empty.
	for p := 0; p < k && p < n; p++ {
		parts[p] = p
	}
	return parts
}

// batchOn runs BatchKWay on a state over parts under c and copies the
// refined assignment back into parts.
func batchOn(tb testing.TB, g *graph.Graph, parts []int, k int, c metrics.Constraints, opts BatchOptions) BatchStats {
	tb.Helper()
	var st BatchStats
	refineOn(tb, g, parts, pstate.Config{K: k, Constraints: c}, func(s *pstate.State) {
		st = BatchKWay(new(arena.Workspace), s, opts)
	})
	return st
}

func TestBatchKWayNeverWorsensAndStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(rng, 40+rng.Intn(60))
		n := g.NumNodes()
		k := 2 + rng.Intn(4)
		parts := randomKWayStart(rng, n, k)
		before := metrics.EdgeCut(g, parts)
		st := batchOn(t, g, parts, k, metrics.Constraints{}, BatchOptions{})
		after := metrics.EdgeCut(g, parts)
		if after > before {
			t.Fatalf("trial %d: batch pass worsened cut %d -> %d", trial, before, after)
		}
		if st.CutBefore != before || st.CutAfter != after {
			t.Fatalf("trial %d: stats %+v disagree with recomputed %d -> %d", trial, st, before, after)
		}
		if err := metrics.Validate(g, parts, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for p, s := range metrics.PartSizes(parts, k) {
			if s == 0 {
				t.Fatalf("trial %d: batch pass emptied part %d", trial, p)
			}
		}
	}
}

func TestBatchKWayImprovesInterleavedClusters(t *testing.T) {
	g := twoClusters(16)
	parts := make([]int, g.NumNodes())
	for i := range parts {
		parts[i] = i % 2
	}
	before := metrics.EdgeCut(g, parts)
	st := batchOn(t, g, parts, 2, metrics.Constraints{}, BatchOptions{Record: true})
	after := metrics.EdgeCut(g, parts)
	if after >= before {
		t.Fatalf("batch pass did not improve interleaved clusters: %d -> %d", before, after)
	}
	if st.CutAfter >= st.CutBefore {
		t.Fatalf("stats should report improvement: %+v", st)
	}
	if st.Rounds == 0 || st.Moves == 0 {
		t.Fatalf("improving pass recorded no rounds/moves: %+v", st)
	}
	if len(st.RoundSizes) != st.Rounds || len(st.RoundGains) != st.Rounds {
		t.Fatalf("Record bookkeeping mismatch: %+v", st)
	}
	var moves int
	for _, s := range st.RoundSizes {
		moves += s
	}
	if moves != st.Moves {
		t.Fatalf("RoundSizes sum %d != Moves %d", moves, st.Moves)
	}
}

func TestBatchKWayRespectsRmax(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 15; trial++ {
		g := randomConnected(rng, 50)
		k := 2 + rng.Intn(3)
		parts := randomKWayStart(rng, 50, k)
		var rmax int64
		for _, r := range metrics.PartResources(g, parts, k) {
			if r > rmax {
				rmax = r
			}
		}
		batchOn(t, g, parts, k, metrics.Constraints{Rmax: rmax}, BatchOptions{})
		for p, r := range metrics.PartResources(g, parts, k) {
			if r > rmax {
				t.Fatalf("trial %d: part %d overflowed Rmax: %d > %d", trial, p, r, rmax)
			}
		}
	}
}

// TestBatchKWayDifferentialStateMatchesMetrics bit-compares, after every
// applied round, the incremental pstate quantities against a from-scratch
// recomputation on the state's own assignment — the same contract the
// pstate invariants harness enforces, checked here at the batch-apply
// boundary where the refiner issues many moves between checks.
func TestBatchKWayDifferentialStateMatchesMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 8; trial++ {
		g := randomConnected(rng, 60+rng.Intn(60))
		n := g.NumNodes()
		k := 2 + rng.Intn(4)
		parts := randomKWayStart(rng, n, k)
		var cons metrics.Constraints
		if trial%2 == 0 {
			var rmax int64
			for _, r := range metrics.PartResources(g, parts, k) {
				if r > rmax {
					rmax = r
				}
			}
			cons = metrics.Constraints{Bmax: 1 + int64(rng.Intn(200)), Rmax: rmax}
		}
		hooks := 0
		batchOn(t, g, parts, k, cons, BatchOptions{
			RoundHook: func(round int, st *pstate.State) {
				hooks++
				pp := st.Parts()
				if got, want := st.Cut(), metrics.EdgeCut(g, pp); got != want {
					t.Fatalf("trial %d round %d: cut maintained %d, recomputed %d", trial, round, got, want)
				}
				bw := metrics.BandwidthMatrix(g, pp, k)
				for i := 0; i < k; i++ {
					for j := 0; j < k; j++ {
						if got := st.Bandwidth(i, j); got != bw[i][j] {
							t.Fatalf("trial %d round %d: bandwidth[%d][%d] maintained %d, recomputed %d",
								trial, round, i, j, got, bw[i][j])
						}
					}
				}
				res := metrics.PartResources(g, pp, k)
				sizes := metrics.PartSizes(pp, k)
				for p := 0; p < k; p++ {
					if st.Resource(p) != res[p] || st.Count(p) != sizes[p] {
						t.Fatalf("trial %d round %d: part %d maintained (%d,%d), recomputed (%d,%d)",
							trial, round, p, st.Resource(p), st.Count(p), res[p], sizes[p])
					}
				}
				if got, want := st.Feasible(), metrics.Feasible(g, pp, k, cons); got != want {
					t.Fatalf("trial %d round %d: feasible maintained %v, recomputed %v", trial, round, got, want)
				}
			},
		})
		if hooks == 0 && metrics.EdgeCut(g, parts) > 0 {
			// Not an error by itself (the start may already be locally
			// optimal), but with 8 trials at these sizes at least some must
			// exercise the hook or the test is vacuous.
			t.Logf("trial %d: no rounds applied", trial)
		}
	}
}

// TestBatchKWayPreApplyPanicLeavesPartsUntouched pins the failure-isolation
// contract the engine's chaos failpoint relies on: a panic at the pre-apply
// boundary must propagate before the round's first move reaches the state.
func TestBatchKWayPreApplyPanicLeavesPartsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := randomConnected(rng, 60)
	parts := randomKWayStart(rng, 60, 3)
	s, err := pstate.New(g.ToCSR(), parts, pstate.Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the PreApply panic to propagate")
			}
		}()
		BatchKWay(new(arena.Workspace), s, BatchOptions{PreApply: func(round, cands int) {
			panic("injected")
		}})
	}()
	if !reflect.DeepEqual(s.Parts(), parts) || s.Moves() != 0 {
		t.Fatal("panic at the apply boundary left a move in the state")
	}
}

// TestBatchKWaySelectsByDestinationCap pins per-part caps in batch
// selection: under RmaxPart, a round holding one candidate that fits its
// destination and one that overfills a small part must keep the fitting
// move instead of being rejected whole.
func TestBatchKWaySelectsByDestinationCap(t *testing.T) {
	// Path 0-1-2-3-4-5 with unit node weights. Node 1 gains 9 by joining
	// part 0 (cap 10); node 4 gains 9 by joining part 2, whose cap 1 it
	// would break.
	g := graph.New(6)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 5)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 10)
	parts := []int{0, 1, 1, 1, 1, 2}
	cons := metrics.Constraints{RmaxPart: []int64{10, 10, 1}}
	st := batchOn(t, g, parts, 3, cons, BatchOptions{})
	if parts[1] != 0 {
		t.Fatalf("fitting move of node 1 into part 0 was dropped: parts %v, stats %+v", parts, st)
	}
	if parts[4] == 2 {
		t.Fatalf("node 4 overfilled part 2: parts %v", parts)
	}
	if !metrics.Feasible(g, parts, 3, cons) {
		t.Fatalf("result %v breaks the per-part caps", parts)
	}
}

func TestBatchKWayDegenerateInputs(t *testing.T) {
	g := graph.New(1)
	parts := []int{0}
	if st := batchOn(t, g, parts, 1, metrics.Constraints{}, BatchOptions{}); st.Rounds != 0 {
		t.Fatalf("k=1 should be a no-op, got %+v", st)
	}
}

// FuzzBatchSelect feeds fuzz-shaped instances through the batch pass and
// checks the basic safety properties: no worsened cut, a valid
// assignment, non-empty parts and no part over Rmax.
func FuzzBatchSelect(f *testing.F) {
	f.Add(int64(1), 20, 3)
	f.Add(int64(7), 64, 4)
	f.Add(int64(42), 9, 2)
	f.Fuzz(func(t *testing.T, seed int64, n, k int) {
		if n < 4 || n > 200 || k < 2 || k > 8 || k > n {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(rng, n)
		parts := randomKWayStart(rng, n, k)
		before := metrics.EdgeCut(g, parts)
		var rmax int64
		for _, r := range metrics.PartResources(g, parts, k) {
			if r > rmax {
				rmax = r
			}
		}
		batchOn(t, g, parts, k, metrics.Constraints{Rmax: rmax}, BatchOptions{})
		if metrics.EdgeCut(g, parts) > before {
			t.Fatalf("batch pass worsened cut")
		}
		if err := metrics.Validate(g, parts, k); err != nil {
			t.Fatal(err)
		}
		for p, s := range metrics.PartSizes(parts, k) {
			if s == 0 {
				t.Fatalf("part %d emptied", p)
			}
		}
		for p, r := range metrics.PartResources(g, parts, k) {
			if r > rmax {
				t.Fatalf("part %d overflowed Rmax: %d > %d", p, r, rmax)
			}
		}
	})
}
