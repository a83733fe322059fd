package stream

import (
	"math/rand"
	"testing"

	"ppnpart/internal/gen"
	"ppnpart/internal/metrics"
)

// BenchmarkStreamPartition streams a fixed random n=100000 graph into K=16
// parts under the stream_n500k workload's constraints (Rmax leaves 15%
// slack over W/K plus the heaviest node, Bmax is twice the average edge
// weight a part could carry). The scoring of candidate parts dominates;
// cut and passes pin that a faster chooser placed every vertex the same.
func BenchmarkStreamPartition(b *testing.B) {
	const n, k = 100000, 16
	g, err := gen.RandomConnected(n, 3*n,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
		rand.New(rand.NewSource(int64(1000+n))))
	if err != nil {
		b.Fatal(err)
	}
	c := metrics.Constraints{
		Rmax: int64(1.15*float64(g.TotalNodeWeight())/float64(k)) + g.MaxNodeWeight(),
		Bmax: 2 * g.TotalEdgeWeight() / int64(k),
	}
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		if res, err = Partition(g, Options{K: k, Constraints: c}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Cut), "cut")
	b.ReportMetric(float64(len(res.Iters)), "passes")
}
