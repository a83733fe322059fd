package stream

import (
	"context"
	"math/rand"
	"testing"

	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/metrics"
)

// benchGraph is the fixed random n=100000 graph both stream benchmarks
// partition into K=16 parts, with Rmax leaving 15% slack over W/K plus
// the heaviest node (the stream_n500k workload's resource bound).
func benchGraph(b *testing.B) (g *graph.Graph, k int, c metrics.Constraints) {
	const n = 100000
	k = 16
	g, err := gen.RandomConnected(n, 3*n,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
		rand.New(rand.NewSource(int64(1000+n))))
	if err != nil {
		b.Fatal(err)
	}
	c.Rmax = int64(1.15*float64(g.TotalNodeWeight())/float64(k)) + g.MaxNodeWeight()
	return g, k, c
}

// benchStream partitions g b.N times and reports the cut and the pass
// count, which pin that a faster chooser placed every vertex the same.
func benchStream(b *testing.B, g *graph.Graph, k int, c metrics.Constraints) {
	b.ResetTimer()
	var res *Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = PartitionCtx(context.Background(), g, Options{K: k, Constraints: c}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Cut), "cut")
	b.ReportMetric(float64(len(res.Iters)), "passes")
}

// BenchmarkStreamPartition streams the bench graph under the
// stream_n500k workload's constraints: Bmax is twice the average edge
// weight a part could carry, which no pair total reaches, so the scoring
// of candidate parts dominates and the bandwidth term is skipped.
func BenchmarkStreamPartition(b *testing.B) {
	g, k, c := benchGraph(b)
	c.Bmax = 2 * g.TotalEdgeWeight() / int64(k)
	benchStream(b, g, k, c)
}

// BenchmarkStreamPartitionTightBmax streams the bench graph with Bmax at
// the average pair's share of the total edge weight, EW/K². Pair totals
// pass it within the initial stream and every pass ends with a
// bandwidth excess, so the exact BandwidthDelta path runs for the rest of
// the initial stream and for every vertex of the restream passes.
func BenchmarkStreamPartitionTightBmax(b *testing.B) {
	g, k, c := benchGraph(b)
	c.Bmax = g.TotalEdgeWeight() / int64(k*k)
	benchStream(b, g, k, c)
}
