package refine

import (
	"math/rand"
	"testing"

	"ppnpart/internal/arena"
	"ppnpart/internal/gen"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pstate"
)

func BenchmarkFMBisect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 5000)
	base := make([]int, 5000)
	for i := range base {
		base[i] = i % 2
	}
	bound := g.TotalNodeWeight()/2 + g.MaxNodeWeight()
	ws, csr := new(arena.Workspace), g.ToCSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := append([]int(nil), base...)
		FMBisectWS(ws, csr, parts, bound, 4)
	}
}

// BenchmarkKWayFM refines a round-robin 8-way start of a random
// 5000-node graph under a balance cap; cut pins the moves made.
func BenchmarkKWayFM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(rng, 5000)
	base := make([]int, 5000)
	for i := range base {
		base[i] = i % 8
	}
	cfg := pstate.Config{K: 8, Constraints: metrics.Constraints{Rmax: g.TotalNodeWeight()/8 + g.MaxNodeWeight()}}
	ws, csr := new(arena.Workspace), g.ToCSR()
	b.ResetTimer()
	var st Stats
	for i := 0; i < b.N; i++ {
		s, _ := pstate.New(csr, base, cfg)
		st = KWayFM(ws, s, 4)
	}
	b.ReportMetric(float64(st.CutAfter), "cut")
}

// BenchmarkBatchKWay runs batch refinement on a random n=50000 graph from
// a contiguous-block 16-way start under a balance cap and a bandwidth
// bound; cut and rounds pin the rounds accepted.
func BenchmarkBatchKWay(b *testing.B) {
	const n, k = 50000, 16
	g, err := gen.RandomConnected(n, 3*n,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
		rand.New(rand.NewSource(6)))
	if err != nil {
		b.Fatal(err)
	}
	base := make([]int, n)
	for u := range base {
		base[u] = u * k / n
	}
	cfg := pstate.Config{K: k, Constraints: metrics.Constraints{
		Rmax: g.TotalNodeWeight()*11/(10*k) + g.MaxNodeWeight(),
		Bmax: 2 * g.TotalEdgeWeight() / k,
	}}
	ws, csr := new(arena.Workspace), g.ToCSR()
	b.ResetTimer()
	var st BatchStats
	for i := 0; i < b.N; i++ {
		s, _ := pstate.NewWS(ws, csr, base, cfg)
		st = BatchKWay(ws, s, BatchOptions{})
		s.Release(ws)
	}
	b.ReportMetric(float64(st.CutAfter), "cut")
	b.ReportMetric(float64(st.Rounds), "rounds")
}

// BenchmarkReplicate runs the replication pass on a 2000-process fanout
// PPN lowered to hyperedges, from a contiguous-block 8-way assignment;
// cut is the replication-aware objective it leaves (pairwise cut plus
// net connectivity cost) and clones the replicas committed.
func BenchmarkReplicate(b *testing.B) {
	const k = 8
	g := fanoutHyperGraph(b, 2000, 7)
	n := g.NumNodes()
	parts := make([]int, n)
	for u := range parts {
		parts[u] = u * k / n
	}
	cfg := pstate.Config{K: k, Constraints: metrics.Constraints{Rmax: g.TotalNodeWeight()*125/(100*k) + g.MaxNodeWeight()}}
	b.ResetTimer()
	var st ReplicateStats
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = Replicate(g, parts, k, cfg, ReplicateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.ObjectiveAfter), "cut")
	b.ReportMetric(float64(st.Clones), "clones")
}

func BenchmarkRepairBandwidth(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 2000)
	base := make([]int, 2000)
	for i := range base {
		base[i] = rng.Intn(4)
	}
	cfg := pstate.Config{K: 4, Constraints: metrics.Constraints{Bmax: g.TotalEdgeWeight() / 8}}
	ws, csr := new(arena.Workspace), g.ToCSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := pstate.New(csr, base, cfg)
		RepairBandwidth(ws, s, 4)
	}
}

func BenchmarkTabuSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := randomConnected(rng, 500)
	base := make([]int, 500)
	for i := range base {
		base[i] = rng.Intn(4)
	}
	c := metrics.Constraints{Bmax: g.TotalEdgeWeight() / 4, Rmax: g.TotalNodeWeight()}
	csr := g.ToCSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := append([]int(nil), base...)
		TabuSearchCSR(csr, parts, 4, c, TabuOptions{Iterations: 200})
	}
}

func BenchmarkAnneal(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, 2000)
	base := make([]int, 2000)
	for i := range base {
		base[i] = rng.Intn(4)
	}
	c := metrics.Constraints{Bmax: g.TotalEdgeWeight() / 4, Rmax: g.TotalNodeWeight()}
	csr := g.ToCSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := append([]int(nil), base...)
		AnnealCSR(csr, parts, 4, c, AnnealOptions{Iterations: 5000}, rand.New(rand.NewSource(9)))
	}
}
