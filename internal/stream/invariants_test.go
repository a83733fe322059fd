package stream

import (
	"context"
	"math/rand"
	"testing"

	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// checkInvariants asserts the streaming partitioner's contract on one
// finished run — the four properties the ISSUE pins:
//
//  1. every vertex is assigned exactly once, to a part in [0, K);
//  2. when the run reports feasibility, every recomputed per-part
//     resource total respects Rmax (and every pairwise bandwidth Bmax);
//  3. the maintained cut/goodness/feasibility are bit-identical to a
//     from-scratch recompute by the metrics package;
//  4. the accepted score trajectory is monotonically non-worsening, and
//     only the final pass may be rejected.
func checkInvariants(t *testing.T, g *graph.Graph, res *Result, c metrics.Constraints) {
	t.Helper()
	k := res.K

	// (1) total assignment.
	if len(res.Parts) != g.NumNodes() {
		t.Fatalf("%d assignments for %d vertices", len(res.Parts), g.NumNodes())
	}
	for u, p := range res.Parts {
		if p < 0 || p >= k {
			t.Fatalf("vertex %d assigned to part %d outside [0,%d)", u, p, k)
		}
	}

	// (2) feasibility means the recomputed totals meet the bounds.
	resources := metrics.PartResources(g, res.Parts, k)
	bw := metrics.BandwidthMatrix(g, res.Parts, k)
	if res.Feasible {
		for p, r := range resources {
			if c.Rmax > 0 && r > c.Rmax {
				t.Fatalf("feasible run has part %d at resource %d > Rmax %d", p, r, c.Rmax)
			}
		}
		for i := range bw {
			for j, b := range bw[i] {
				if i != j && c.Bmax > 0 && b > c.Bmax {
					t.Fatalf("feasible run has bw[%d][%d] = %d > Bmax %d", i, j, b, c.Bmax)
				}
			}
		}
	}

	// (3) maintained values == from-scratch recompute, bit-identical.
	if cut := metrics.EdgeCut(g, res.Parts); res.Cut != cut {
		t.Fatalf("maintained cut %d != recomputed %d", res.Cut, cut)
	}
	if good := metrics.Goodness(g, res.Parts, k, c); res.Goodness != good {
		t.Fatalf("maintained goodness %v != recomputed %v", res.Goodness, good)
	}
	if feas := metrics.Feasible(g, res.Parts, k, c); res.Feasible != feas {
		t.Fatalf("maintained feasible %v != recomputed %v", res.Feasible, feas)
	}

	// (4) monotone accepted trajectory.
	if len(res.Iters) == 0 {
		t.Fatal("no pass trajectory recorded")
	}
	last := res.Iters[0].Score
	for i, it := range res.Iters {
		if i == 0 {
			if !it.Accepted {
				t.Fatal("initial stream marked rejected")
			}
			continue
		}
		if !it.Accepted {
			if i != len(res.Iters)-1 {
				t.Fatalf("pass %d rejected but passes follow it: %+v", it.Iter, res.Iters)
			}
			if it.Score < last {
				t.Fatalf("pass %d improved the score %v -> %v yet was rejected", it.Iter, last, it.Score)
			}
			continue
		}
		if it.Score >= last {
			t.Fatalf("accepted pass %d did not strictly improve: %v -> %v", it.Iter, last, it.Score)
		}
		last = it.Score
	}
	if res.Goodness != last {
		t.Fatalf("final goodness %v != last accepted score %v", res.Goodness, last)
	}
}

// streamCase is one randomized configuration of the property suite.
type streamCase struct {
	g    *graph.Graph
	opts Options
}

// randomCase draws a graph and streaming options from rng. Constraints
// range from unconstrained through satisfiable to impossible, so the
// invariants are exercised on feasible and infeasible outcomes alike.
func randomCase(t *testing.T, rng *rand.Rand) streamCase {
	t.Helper()
	n := 20 + rng.Intn(300)
	maxExtra := n * (n - 1) / 2
	m := n - 1 + rng.Intn(min(3*n, maxExtra-(n-1))+1)
	g, err := gen.RandomConnected(n, m,
		gen.WeightRange{Lo: 1, Hi: 1 + int64(rng.Intn(10))},
		gen.WeightRange{Lo: 1, Hi: 1 + int64(rng.Intn(8))},
		rng)
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	k := 2 + rng.Intn(6)
	var c metrics.Constraints
	switch rng.Intn(3) {
	case 0: // unconstrained
	case 1: // satisfiable-ish
		c = metrics.Constraints{
			Rmax: g.TotalNodeWeight()*(110+int64(rng.Intn(40)))/int64(100*k) + g.MaxNodeWeight(),
			Bmax: 2 * g.TotalEdgeWeight() / int64(k),
		}
	case 2: // tight, likely infeasible
		c = metrics.Constraints{
			Rmax: g.TotalNodeWeight() / int64(k),
			Bmax: 1 + g.TotalEdgeWeight()/int64(8*k),
		}
	}
	opts := Options{
		K:             k,
		Constraints:   c,
		Gamma:         1 + rng.Float64(),
		MaxIterations: rng.Intn(6) - 1,
		Workers:       1 + rng.Intn(4),
		Seed:          rng.Int63(),
		Order:         Order(rng.Intn(2)),
	}
	return streamCase{g: g, opts: opts}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestStreamInvariants is the property suite: many random (graph,
// options) draws, each checked against the full invariant contract.
func TestStreamInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cases := 60
	if testing.Short() {
		cases = 15
	}
	for i := 0; i < cases; i++ {
		cse := randomCase(t, rng)
		res, err := PartitionCtx(context.Background(), cse.g, cse.opts)
		if err != nil {
			t.Fatalf("case %d (%+v): %v", i, cse.opts, err)
		}
		checkInvariants(t, cse.g, res, cse.opts.Constraints)
	}
}
