package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/match"
	"ppnpart/internal/metrics"
)

func TestValidateTypedErrors(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(1)), 20)
	cases := []struct {
		name string
		opts Options
		want error
	}{
		{"K=0", Options{K: 0}, ErrNonPositiveK},
		{"K<0", Options{K: -3}, ErrNonPositiveK},
		{"K>n", Options{K: 30}, ErrTooFewNodes},
		{"negBmax", Options{K: 2, Constraints: metrics.Constraints{Bmax: -1}}, ErrNegativeBmax},
		{"negRmax", Options{K: 2, Constraints: metrics.Constraints{Rmax: -5}}, ErrNegativeRmax},
		{"negRestarts", Options{K: 2, Restarts: -1}, ErrNegativeRestarts},
		{"badHeuristic", Options{K: 2, MatchHeuristics: []match.Heuristic{match.Heuristic(42)}}, ErrUnknownHeuristic},
		{"lowStreamGamma", Options{K: 2, Algo: AlgoStream, StreamGamma: 0.5}, ErrBadStreamGamma},
		{"nanStreamGamma", Options{K: 2, Algo: AlgoStream, StreamGamma: math.NaN()}, ErrBadStreamGamma},
		{"infStreamGamma", Options{K: 2, Algo: AlgoStream, StreamGamma: math.Inf(1)}, ErrBadStreamGamma},
		{"negInfStreamGamma", Options{K: 2, Algo: AlgoStream, StreamGamma: math.Inf(-1)}, ErrBadStreamGamma},
	}
	for _, c := range cases {
		_, err := Partition(g, c.opts)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: err = %v does not wrap ErrInvalidOptions", c.name, err)
		}
	}
	if !errors.Is(ErrUnknownHeuristic, match.ErrUnknownHeuristic) {
		t.Error("core.ErrUnknownHeuristic must wrap match.ErrUnknownHeuristic")
	}
}

// TestStreamNaNGammaRejected pins the regression behind the non-finite
// StreamGamma check: a NaN exponent made every penalty NaN, and the paper's
// first instance under AlgoStream came back infeasible with no error.
func TestStreamNaNGammaRejected(t *testing.T) {
	insts, err := gen.AllPaperInstances()
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	res, err := Partition(inst.G, Options{K: inst.K, Constraints: inst.Constraints,
		Algo: AlgoStream, StreamGamma: math.NaN()})
	if !errors.Is(err, ErrBadStreamGamma) {
		t.Fatalf("StreamGamma NaN: err = %v (result %+v), want ErrBadStreamGamma", err, res)
	}
}

func TestPartitionCtxBackgroundMatchesPartition(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(7)), 80)
	opts := Options{K: 4, Constraints: metrics.Constraints{Rmax: 2000}, Seed: 3}
	a, err := Partition(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionCtx(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Goodness != b.Goodness || a.Feasible != b.Feasible {
		t.Fatalf("PartitionCtx(background) diverges from Partition: %v/%v vs %v/%v",
			a.Goodness, a.Feasible, b.Goodness, b.Feasible)
	}
	if b.Stopped {
		t.Fatal("background context must not report Stopped")
	}
}

func TestPartitionCtxExpiredDeadlineBestEffort(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(11)), 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired before the search starts
	start := time.Now()
	res, err := PartitionCtx(ctx, g, Options{K: 4, Constraints: metrics.Constraints{Bmax: 50, Rmax: 900}})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("best-effort return took %v, want <= 100ms", elapsed)
	}
	if !res.Stopped {
		t.Fatal("cancelled run must report Stopped")
	}
	if len(res.Parts) != g.NumNodes() {
		t.Fatalf("best-effort assignment has %d entries, want %d", len(res.Parts), g.NumNodes())
	}
	if err := metrics.Validate(g, res.Parts, res.K); err != nil {
		t.Fatalf("best-effort assignment invalid: %v", err)
	}
	// The violation report must be present and honest about the fallback.
	if res.Feasible != (len(res.Report.Violations) == 0) {
		t.Fatalf("Feasible=%v inconsistent with %d violations", res.Feasible, len(res.Report.Violations))
	}
	if res.Message == "" {
		t.Fatal("stopped run must explain itself in Message")
	}
}

func TestPartitionCtxMidRunCancellation(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(13)), 400)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	res, err := PartitionCtx(ctx, g, Options{
		K: 4, Constraints: metrics.Constraints{Bmax: 40, Rmax: 1800},
		MaxCycles: 64, MinimizeAfterFeasible: true, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != g.NumNodes() {
		t.Fatalf("assignment has %d entries, want %d", len(res.Parts), g.NumNodes())
	}
	if err := metrics.Validate(g, res.Parts, res.K); err != nil {
		t.Fatalf("assignment invalid after cancellation: %v", err)
	}
}

func TestValidateVectorsThroughOptions(t *testing.T) {
	g := graph.New(4)
	for i := 0; i < 3; i++ {
		g.MustAddEdge(graph.Node(i), graph.Node(i+1), 1)
	}
	_, err := Partition(g, Options{
		K:                 2,
		VectorResources:   [][]int64{{1}, {1}}, // wrong length: 2 rows for 4 nodes
		VectorConstraints: metrics.VectorConstraints{Rmax: []int64{10}},
	})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("bad vector table: err = %v, want ErrInvalidOptions", err)
	}
}
