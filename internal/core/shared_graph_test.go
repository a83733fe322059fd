package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ppnpart/internal/engine"
	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// TestInterleavedSolvesMatchFirstSolve alternates solves of two different
// graphs. Every solve reads its graph's own CSR, so state that leaked
// from one solve into the next (a length or a value of the other graph,
// or scratch a reader kept past its solve) would change a repeated
// solve's result. At Parallelism 2 the GP cycles read the CSR
// concurrently, which the race detector then sees.
func TestInterleavedSolvesMatchFirstSolve(t *testing.T) {
	plain := func(n int, seed int64) *graph.Graph {
		g, err := gen.RandomConnected(n, 3*n, gen.WeightRange{Lo: 10, Hi: 100},
			gen.WeightRange{Lo: 1, Hi: 20}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name   string
		graphs [2]*graph.Graph
		opts   Options
	}{
		{"gp-batch", [2]*graph.Graph{plain(600, 1), plain(250, 2)},
			Options{Refine: engine.RefineBatch, MinimizeAfterFeasible: true, MaxCycles: 4}},
		{"gp-replicate", [2]*graph.Graph{fanoutHyperGraph(t, 60, 3), fanoutHyperGraph(t, 30, 4)},
			Options{Replicate: true, MinimizeAfterFeasible: true, MaxCycles: 4}},
		{"stream", [2]*graph.Graph{plain(800, 3), plain(300, 4)},
			Options{Algo: AlgoStream}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first [2]*Result
			for round := 0; round < 3; round++ {
				for i, g := range tc.graphs {
					opts := tc.opts
					opts.K = 4
					opts.Parallelism = 2
					opts.Seed = 7
					opts.Constraints = metrics.Constraints{Rmax: g.TotalNodeWeight()*3/10 + g.MaxNodeWeight()}
					res, err := Partition(g, opts)
					if err != nil {
						t.Fatal(err)
					}
					// The graph-side oracle, which reads the graph through its
					// own methods, catches a corrupted CSR on a first solve too.
					if !opts.Replicate && res.Goodness != metrics.Goodness(g, res.Parts, opts.K, opts.Constraints) {
						t.Fatalf("round %d, graph %d: goodness %v, recomputed %v", round, i,
							res.Goodness, metrics.Goodness(g, res.Parts, opts.K, opts.Constraints))
					}
					if first[i] == nil {
						first[i] = res
						continue
					}
					want := first[i]
					if !reflect.DeepEqual(res.Parts, want.Parts) || !reflect.DeepEqual(res.Replicas, want.Replicas) ||
						!reflect.DeepEqual(res.Report, want.Report) || res.Goodness != want.Goodness {
						t.Fatalf("round %d, graph %d: result differs from the first solve (goodness %v, want %v)",
							round, i, res.Goodness, want.Goodness)
					}
				}
			}
		})
	}
}

// TestConcurrentFirstReadsAgree gives two goroutines one graph whose last
// AddEdge is still queued. Each takes the graph's CSR, which makes both
// race to fold it, and then partitions the graph at Parallelism 2. Both
// must see the same CSR and return the same result; the race detector
// checks the fold's locking.
func TestConcurrentFirstReadsAgree(t *testing.T) {
	g, err := gen.RandomConnected(300, 900, gen.WeightRange{Lo: 10, Hi: 100},
		gen.WeightRange{Lo: 1, Hi: 20}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	g.ToCSR()
	g.MustAddEdge(0, 299, 7)
	opts := Options{K: 4, Parallelism: 2, Seed: 3, MaxCycles: 3,
		Constraints: metrics.Constraints{Rmax: g.TotalNodeWeight()*3/10 + g.MaxNodeWeight()}}
	var csrs [2]*graph.CSR
	var results [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			csrs[i] = g.ToCSR()
			results[i], errs[i] = Partition(g, opts)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if csrs[0] != csrs[1] || !g.HasEdge(0, 299) {
		t.Fatal("the two first reads folded different CSRs or lost the queued edge")
	}
	if !reflect.DeepEqual(results[0].Parts, results[1].Parts) || results[0].Goodness != results[1].Goodness {
		t.Fatalf("concurrent solves differ: goodness %v and %v", results[0].Goodness, results[1].Goodness)
	}
}
