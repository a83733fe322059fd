// Benchmarks regenerating every table and figure of the paper, plus the
// validation, scalability and ablation studies. Each experiment artifact
// has a dedicated bench target:
//
//	Tables I–III  -> BenchmarkTable{1,2,3}{GP,Baseline}
//	Figures 2–13  -> BenchmarkFiguresExp{1,2,3}
//	V1 simulation -> BenchmarkFPGASim{FIR,RandPPN,SplitMerge}
//	S1 sweep      -> BenchmarkScale{GP,Baseline}/{100..10000}
//	A1–A4         -> BenchmarkAblation{Matching,Restarts,CoarsenTarget,Cycles}
//
// Cut/bandwidth/resource metrics are attached to the bench output via
// ReportMetric, so `go test -bench` regenerates the table values, not
// just the runtimes.
package ppnpart_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"ppnpart/internal/core"
	"ppnpart/internal/engine"
	"ppnpart/internal/experiments"
	"ppnpart/internal/fpga"
	"ppnpart/internal/gen"
	"ppnpart/internal/metrics"
	"ppnpart/internal/mlkp"
	"ppnpart/internal/ppn"
	"ppnpart/internal/server"
)

// benchTableGP regenerates one paper table's GP row.
func benchTableGP(b *testing.B, idx int) {
	inst, err := gen.PaperInstance(idx)
	if err != nil {
		b.Fatal(err)
	}
	var rep metrics.Report
	for i := 0; i < b.N; i++ {
		res, err := core.Partition(inst.G, core.Options{
			K: inst.K, Constraints: inst.Constraints, Seed: 1, MaxCycles: 24,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatalf("GP infeasible on %s", inst.Name)
		}
		rep = res.Report
	}
	b.ReportMetric(float64(rep.EdgeCut), "cut")
	b.ReportMetric(float64(rep.MaxLocalBandwidth), "maxBW")
	b.ReportMetric(float64(rep.MaxResource), "maxRes")
}

// benchTableBaseline regenerates one paper table's METIS-like row.
func benchTableBaseline(b *testing.B, idx int) {
	inst, err := gen.PaperInstance(idx)
	if err != nil {
		b.Fatal(err)
	}
	var rep metrics.Report
	for i := 0; i < b.N; i++ {
		res, err := mlkp.Partition(inst.G, mlkp.Options{K: inst.K, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		rep = metrics.Evaluate(inst.G, res.Parts, inst.K, inst.Constraints)
	}
	b.ReportMetric(float64(rep.EdgeCut), "cut")
	b.ReportMetric(float64(rep.MaxLocalBandwidth), "maxBW")
	b.ReportMetric(float64(rep.MaxResource), "maxRes")
}

func BenchmarkTable1GP(b *testing.B)       { benchTableGP(b, 1) }
func BenchmarkTable1Baseline(b *testing.B) { benchTableBaseline(b, 1) }
func BenchmarkTable2GP(b *testing.B)       { benchTableGP(b, 2) }
func BenchmarkTable2Baseline(b *testing.B) { benchTableBaseline(b, 2) }
func BenchmarkTable3GP(b *testing.B)       { benchTableGP(b, 3) }
func BenchmarkTable3Baseline(b *testing.B) { benchTableBaseline(b, 3) }

// benchFigures regenerates one experiment's four figures (DOT + SVG).
func benchFigures(b *testing.B, idx int) {
	tab, err := experiments.RunTable(idx)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		files, err := experiments.FigureSet(tab, dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(files) != 8 {
			b.Fatalf("wrote %d files, want 8", len(files))
		}
	}
}

func BenchmarkFiguresExp1(b *testing.B) { benchFigures(b, 1) } // Figures 2-5
func BenchmarkFiguresExp2(b *testing.B) { benchFigures(b, 2) } // Figures 6-9
func BenchmarkFiguresExp3(b *testing.B) { benchFigures(b, 3) } // Figures 10-13

// benchSim runs one V1 simulation case end to end (partition with both
// tools, simulate both mappings) and reports the makespan ratio.
func benchSim(b *testing.B, caseIdx int) {
	cases, err := experiments.DefaultSimCases()
	if err != nil {
		b.Fatal(err)
	}
	var cmp *experiments.SimComparison
	for i := 0; i < b.N; i++ {
		cmp, err = experiments.RunSimCase(cases[caseIdx])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cmp.Baseline.Makespan), "baseMakespan")
	b.ReportMetric(float64(cmp.GP.Makespan), "gpMakespan")
	if cmp.GP.Makespan > 0 {
		b.ReportMetric(float64(cmp.Baseline.Makespan)/float64(cmp.GP.Makespan), "slowdown")
	}
}

func BenchmarkFPGASimFIR(b *testing.B)        { benchSim(b, 0) }
func BenchmarkFPGASimRandPPN(b *testing.B)    { benchSim(b, 1) }
func BenchmarkFPGASimSplitMerge(b *testing.B) { benchSim(b, 2) }

// Scalability sweep (S1): GP and the baseline on growing random graphs.
func BenchmarkScaleGP(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			pts, err := experiments.RunScaleSweep([]int{n}, 4)
			if err != nil {
				b.Fatal(err)
			}
			g, err := gen.RandomConnected(n, 3*n,
				gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
				seededRand(int64(1000+n)))
			if err != nil {
				b.Fatal(err)
			}
			c := metrics.Constraints{Bmax: pts[0].Bmax, Rmax: pts[0].Rmax}
			b.ResetTimer()
			var cut int64
			for i := 0; i < b.N; i++ {
				res, err := core.Partition(g, core.Options{K: 4, Constraints: c, Seed: 1, MaxCycles: 8})
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Report.EdgeCut
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}

	// Large-instance refinement pair: the same n=100000 graph solved with
	// the serial pipeline race and with batch refinement, reported as
	// sibling sub-benchmarks so the trajectory file records the
	// serial-vs-batch wall-clock delta and both cuts. k=16 is where the
	// refinement share of the solve is largest (FM move evaluation is
	// O(k), coarsening is k-independent), i.e. where batch refinement's
	// single-sweep-plus-polish structure pays off most.
	b.Run("n100000", func(b *testing.B) {
		const n, k = 100000, 16
		g, err := gen.RandomConnected(n, 3*n,
			gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
			seededRand(int64(1000+n)))
		if err != nil {
			b.Fatal(err)
		}
		c := metrics.Constraints{
			Rmax: g.TotalNodeWeight()*115/int64(100*k) + g.MaxNodeWeight(),
			Bmax: 2 * g.TotalEdgeWeight() / int64(k),
		}
		for _, m := range []struct {
			name string
			mode engine.RefineMode
		}{
			{"serial", engine.RefineSerial},
			{"batch", engine.RefineBatch},
		} {
			b.Run(m.name, func(b *testing.B) {
				b.ResetTimer()
				var cut int64
				for i := 0; i < b.N; i++ {
					res, err := core.Partition(g, core.Options{
						K: k, Constraints: c, Seed: 1, MaxCycles: 8, Refine: m.mode,
					})
					if err != nil {
						b.Fatal(err)
					}
					cut = res.Report.EdgeCut
				}
				b.ReportMetric(float64(cut), "cut")
			})
		}
	})

	// Replication instance: a fanout PPN lowered to hyperedges, solved with
	// the logic-replication pass on. The pass dominates this solve, so the
	// row tracks its cost end to end; cut is the delivered replication-
	// aware objective (pairwise cut plus net connectivity cost).
	b.Run("fanout20000", func(b *testing.B) {
		const procs, k = 20000, 8
		net, err := gen.RandomFanoutPPN(procs, gen.WeightRange{Lo: 10, Hi: 100},
			gen.WeightRange{Lo: 1, Hi: 5}, seededRand(int64(1000+procs)))
		if err != nil {
			b.Fatal(err)
		}
		g, err := net.ToGraphHyper(ppn.DefaultResourceModel())
		if err != nil {
			b.Fatal(err)
		}
		c := metrics.Constraints{Rmax: g.TotalNodeWeight()*125/int64(100*k) + g.MaxNodeWeight()}
		b.Run("replicate", func(b *testing.B) {
			b.ResetTimer()
			var cut int64
			var clones int
			for i := 0; i < b.N; i++ {
				res, err := core.Partition(g, core.Options{
					K: k, Constraints: c, Seed: 1, MaxCycles: 8, Replicate: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				cut = metrics.ReplicatedEdgeCut(g, res.Parts, res.Replicas) +
					metrics.ReplicatedHyperCut(g, res.Parts, res.Replicas)
				clones = res.ReplicatedNodes
			}
			b.ReportMetric(float64(cut), "cut")
			b.ReportMetric(float64(clones), "clones")
		})
	})

	// Million-node instance: out of reach for the multilevel hierarchy in
	// one benchmark iteration, in reach for the streaming partitioner —
	// the graph's own CSR plus O(K²+n) arena-pooled state, no per-level
	// copies and no copy of the input, so after the first iteration a
	// solve allocates little. The trajectory file records its cut and
	// feasibility so the fast path's quality stays on the regression
	// trail.
	b.Run("n1000000", func(b *testing.B) {
		const n, k = 1_000_000, 16
		g, err := gen.RandomConnected(n, 3*n,
			gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
			seededRand(int64(1000+n)))
		if err != nil {
			b.Fatal(err)
		}
		c := metrics.Constraints{
			Rmax: g.TotalNodeWeight()*115/int64(100*k) + g.MaxNodeWeight(),
			Bmax: 2 * g.TotalEdgeWeight() / int64(k),
		}
		b.Run("stream", func(b *testing.B) {
			b.ResetTimer()
			var cut int64
			var feasible float64
			for i := 0; i < b.N; i++ {
				res, err := core.Partition(g, core.Options{
					K: k, Constraints: c, Seed: 1, Algo: core.AlgoStream,
				})
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Report.EdgeCut
				feasible = 0
				if res.Feasible {
					feasible = 1
				}
			}
			b.ReportMetric(float64(cut), "cut")
			b.ReportMetric(feasible, "feasible")
		})
	})
}

func BenchmarkScaleBaseline(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			g, err := gen.RandomConnected(n, 3*n,
				gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
				seededRand(int64(1000+n)))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var cut int64
			for i := 0; i < b.N; i++ {
				res, err := mlkp.Partition(g, mlkp.Options{K: 4, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Report.EdgeCut
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

// Ablations (A1-A4): each configuration is a sub-benchmark reporting its
// cut so `-bench Ablation` regenerates the ablation tables.
func benchAblation(b *testing.B, run func() ([]experiments.AblationRow, error)) {
	var rows []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		feas := 0.0
		if r.Feasible {
			feas = 1.0
		}
		b.ReportMetric(float64(r.Cut), r.Config+"_cut")
		b.ReportMetric(feas, r.Config+"_feasible")
	}
}

func BenchmarkAblationMatching(b *testing.B) { benchAblation(b, experiments.AblationMatching) }
func BenchmarkAblationRestarts(b *testing.B) { benchAblation(b, experiments.AblationRestarts) }
func BenchmarkAblationCoarsenTarget(b *testing.B) {
	benchAblation(b, experiments.AblationCoarsenTarget)
}
func BenchmarkAblationCycles(b *testing.B) { benchAblation(b, experiments.AblationCycles) }

// BenchmarkSimulatorThroughput measures the raw discrete-event simulator
// on a mid-size network (supporting V1's credibility: the simulator
// itself is not the bottleneck).
func BenchmarkSimulatorThroughput(b *testing.B) {
	net, err := ppn.FIR(8, 4000)
	if err != nil {
		b.Fatal(err)
	}
	platform := fpga.Platform{NumFPGAs: 4, Rmax: 500, LinkBandwidth: 2}
	parts := make([]int, len(net.Processes))
	for i := range parts {
		parts[i] = i % 4
	}
	m := fpga.FromParts(parts, platform)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fpga.Simulate(net, m, fpga.SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptGap regenerates the E2 optimality-gap study: exact B&B vs
// GP on the three paper instances.
func BenchmarkOptGap(b *testing.B) {
	var rows []experiments.OptGapRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunOptGap()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Gap, fmt.Sprintf("gap%d", r.Instance))
	}
}

func BenchmarkAblationPolish(b *testing.B) { benchAblation(b, experiments.AblationPolish) }

// BenchmarkRelated regenerates the E3 related-work comparison.
func BenchmarkRelated(b *testing.B) {
	var rows []experiments.RelatedRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunRelated()
		if err != nil {
			b.Fatal(err)
		}
	}
	feasibleCount := 0
	for _, r := range rows {
		if r.Feasible {
			feasibleCount++
		}
	}
	b.ReportMetric(float64(feasibleCount), "feasibleRows")
}

// BenchmarkMultiRes regenerates the M1 multi-resource study.
func BenchmarkMultiRes(b *testing.B) {
	var rows []experiments.MultiResRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunMultiRes()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		feas := 0.0
		if r.Feasible {
			feas = 1.0
		}
		b.ReportMetric(feas, r.Config+"_feasible")
	}
}

func BenchmarkAblationCoarsenScheme(b *testing.B) {
	benchAblation(b, experiments.AblationCoarsenScheme)
}

// BenchmarkVariance regenerates the E4 seed-robustness study (5 seeds per
// instance in bench form; the harness uses 20).
func BenchmarkVariance(b *testing.B) {
	var rows []experiments.VarianceRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunVariance(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.FeasibleRuns)/float64(r.Seeds),
			fmt.Sprintf("feasibleRate%d", r.Instance))
	}
}

// BenchmarkDecodeStarRequest decodes a ppnd job whose graph is a star of
// 50,000 leaves and builds its graph, as ppnd does for every request
// before admission. Every edge meets the hub, so a builder that scans a
// row for an existing edge before appending costs O(leaves²) here.
func BenchmarkDecodeStarRequest(b *testing.B) {
	const leaves = 50_000
	req := server.JobRequest{K: 2}
	req.Graph.Nodes = make([]server.NodeSpec, leaves+1)
	for i := range req.Graph.Nodes {
		req.Graph.Nodes[i] = server.NodeSpec{ID: i, Weight: 1}
	}
	for i := 1; i <= leaves; i++ {
		req.Graph.Edges = append(req.Graph.Edges, server.EdgeSpec{U: 0, V: i, Weight: 1})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, g, err := server.DecodeJobRequest(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if g.NumEdges() != leaves {
			b.Fatalf("%d edges, want %d", g.NumEdges(), leaves)
		}
	}
}
