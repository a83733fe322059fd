package stream

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// testGraph is a deterministic random connected instance.
func testGraph(t testing.TB, n, m int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.RandomConnected(n, m,
		gen.WeightRange{Lo: 1, Hi: 9}, gen.WeightRange{Lo: 1, Hi: 5},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	return g
}

// looseConstraints returns bounds a reasonable k-way partition can meet.
func looseConstraints(g *graph.Graph, k int) metrics.Constraints {
	return metrics.Constraints{
		Rmax: g.TotalNodeWeight()*115/int64(100*k) + g.MaxNodeWeight(),
		Bmax: 2 * g.TotalEdgeWeight() / int64(k),
	}
}

func TestPartitionBasic(t *testing.T) {
	g := testGraph(t, 400, 1600, 7)
	k := 4
	res, err := PartitionCtx(context.Background(), g, Options{K: k, Constraints: looseConstraints(g, k)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != g.NumNodes() {
		t.Fatalf("got %d assignments for %d nodes", len(res.Parts), g.NumNodes())
	}
	if err := metrics.Validate(g, res.Parts, k); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	if len(res.Iters) == 0 || res.Iters[0].Iter != 0 {
		t.Fatalf("missing initial-stream trace: %+v", res.Iters)
	}
	if res.Cut != metrics.EdgeCut(g, res.Parts) {
		t.Fatalf("maintained cut %d != recomputed %d", res.Cut, metrics.EdgeCut(g, res.Parts))
	}
}

func TestRestreamingImproves(t *testing.T) {
	g := testGraph(t, 600, 2400, 11)
	k := 4
	c := looseConstraints(g, k)
	one, err := PartitionCtx(context.Background(), g, Options{K: k, Constraints: c, MaxIterations: -1})
	if err != nil {
		t.Fatal(err)
	}
	many, err := PartitionCtx(context.Background(), g, Options{K: k, Constraints: c, MaxIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	if many.Goodness > one.Goodness {
		t.Fatalf("restreaming worsened goodness: %v -> %v", one.Goodness, many.Goodness)
	}
	if many.Iterations > 0 && many.Goodness == one.Goodness {
		t.Fatalf("accepted %d restream passes without improving the score", many.Iterations)
	}
}

// TestDeterministicAcrossWorkers pins the tentpole's determinism claim:
// a restream pass is a pure function of the previous assignment, so the
// worker count cannot perturb the result.
func TestDeterministicAcrossWorkers(t *testing.T) {
	g := testGraph(t, 500, 2000, 13)
	k := 5
	c := looseConstraints(g, k)
	var want *Result
	for _, workers := range []int{1, 2, 3, 4, 7, 8, 13, 16} {
		res, err := PartitionCtx(context.Background(), g, Options{
			K: k, Constraints: c, Workers: workers, Seed: 3, Order: OrderShuffle,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res.Parts, want.Parts) {
			t.Fatalf("workers=%d changed the assignment", workers)
		}
		if !reflect.DeepEqual(res.Iters, want.Iters) {
			t.Fatalf("workers=%d changed the pass trajectory:\n%+v\nvs\n%+v", workers, res.Iters, want.Iters)
		}
	}
}

func TestOrderShuffleSeeded(t *testing.T) {
	g := testGraph(t, 300, 900, 17)
	k := 3
	c := looseConstraints(g, k)
	a1, err := PartitionCtx(context.Background(), g, Options{K: k, Constraints: c, Seed: 5, Order: OrderShuffle})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := PartitionCtx(context.Background(), g, Options{K: k, Constraints: c, Seed: 5, Order: OrderShuffle})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1.Parts, a2.Parts) {
		t.Fatal("same seed produced different assignments")
	}
}

func TestContextCancelled(t *testing.T) {
	g := testGraph(t, 200, 600, 19)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := PartitionCtx(ctx, g, Options{K: 4, Constraints: looseConstraints(g, 4)})
	if err != nil {
		t.Fatalf("cancellation must not error: %v", err)
	}
	if !res.Stopped {
		t.Fatal("Stopped not set under a cancelled context")
	}
	if err := metrics.Validate(g, res.Parts, 4); err != nil {
		t.Fatalf("cancelled run returned an invalid partition: %v", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	g := testGraph(t, 20, 40, 23)
	cases := []Options{
		{K: 0},
		{K: 2, Constraints: metrics.Constraints{Bmax: -1}},
		{K: 2, Constraints: metrics.Constraints{Rmax: -1}},
		{K: 2, Gamma: 0.5},
		{K: 2, Gamma: math.NaN()},
		{K: 2, Gamma: math.Inf(1)},
		{K: 2, Gamma: math.Inf(-1)},
		{K: 2, Order: Order(99)},
	}
	for _, opts := range cases {
		if _, err := PartitionCtx(context.Background(), g, opts); err == nil {
			t.Errorf("PartitionCtx(context.Background(), %+v) accepted invalid options", opts)
		}
	}
}

// TestInitialStreamBandwidthWithZeroWeightEdges pins the streamer's
// running bandwidth matrix after the initial pass to the from-scratch
// one. A zero-weight edge into a part, followed by a positive edge into
// the same part, once listed that part twice in the vertex's gather, and
// the pass added the affinity twice: on the three-node graph below node
// 2 joins part 1 and the streamer held bw[0][1] = 10 against a true 5.
func TestInitialStreamBandwidthWithZeroWeightEdges(t *testing.T) {
	small := graph.New(3)
	small.MustAddEdge(0, 1, 3)
	small.MustAddEdge(2, 0, 0)
	small.MustAddEdge(2, 1, 5)
	rng := rand.New(rand.NewSource(41))
	wide := graph.New(200)
	for i := 1; i < 200; i++ {
		wide.MustAddEdge(graph.Node(rng.Intn(i)), graph.Node(i), int64(rng.Intn(4)))
	}
	for i := 0; i < 600; i++ {
		if u, v := rng.Intn(200), rng.Intn(200); u != v {
			_ = wide.AddEdge(graph.Node(u), graph.Node(v), int64(rng.Intn(4)))
		}
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opts Options
	}{
		{"three-node", small, Options{K: 2, Constraints: metrics.Constraints{Rmax: 2}}},
		{"random", wide, Options{K: 5, Constraints: looseConstraints(wide, 5)}},
	} {
		csr := tc.g.ToCSR()
		opts := tc.opts.withDefaults()
		ws := &arena.Workspace{}
		k := opts.K
		s := newStreamer(ws, csr, opts, (*streamer).pick)
		s.initialStream()
		want := metrics.BandwidthMatrix(tc.g, s.parts, k)
		for p := 0; p < k; p++ {
			for q := 0; q < k; q++ {
				if got := s.bw[p*k+q]; got != want[p][q] {
					t.Fatalf("%s: parts %v: running bw[%d][%d] = %d, from scratch %d",
						tc.name, s.parts, p, q, got, want[p][q])
				}
			}
		}
	}
}
