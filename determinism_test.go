// Determinism regression tests: for a fixed Options.Seed, core.Partition
// must return bit-identical Parts across runs AND across code changes to
// the refinement internals. The golden assignments below were captured
// before the incremental partition-state engine and parallel refinement
// landed; they pin the exact search trajectory, so any accidental change
// to RNG consumption order, tie-breaking, or floating-point evaluation
// shows up as a hard failure here rather than as a silent quality drift.
package ppnpart_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"ppnpart/internal/core"
	"ppnpart/internal/engine"
	"ppnpart/internal/gen"
	"ppnpart/internal/metrics"
	"ppnpart/internal/stream"
)

// paperGolden pins one (instance, options) partitioning outcome.
type paperGolden struct {
	instance int
	seed     int64
	minimize bool
	parts    []int
	goodness float64
}

var paperGoldens = []paperGolden{
	{1, 1, false, []int{3, 3, 1, 0, 2, 0, 2, 0, 3, 1, 2, 1}, 75},
	{1, 7, true, []int{1, 1, 0, 2, 3, 2, 3, 2, 0, 1, 3, 1}, 70},
	{2, 1, false, []int{2, 0, 3, 0, 0, 1, 2, 3, 2, 1, 1, 3}, 91},
	{2, 7, true, []int{2, 1, 3, 1, 1, 0, 2, 3, 2, 0, 0, 3}, 91},
	{3, 1, false, []int{0, 3, 1, 3, 0, 3, 0, 3, 1, 2, 2, 1}, 105},
	{3, 7, true, []int{1, 3, 0, 3, 3, 2, 2, 1, 0, 3, 2, 0}, 104},
}

func TestDeterminismPaperInstances(t *testing.T) {
	for _, g := range paperGoldens {
		name := fmt.Sprintf("inst%d/seed%d", g.instance, g.seed)
		if g.minimize {
			name += "/min"
		}
		t.Run(name, func(t *testing.T) {
			inst, err := gen.PaperInstance(g.instance)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Partition(inst.G, core.Options{
				K:                     inst.K,
				Constraints:           inst.Constraints,
				Seed:                  g.seed,
				MaxCycles:             24,
				MinimizeAfterFeasible: g.minimize,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Parts) != len(g.parts) {
				t.Fatalf("parts length %d, want %d", len(res.Parts), len(g.parts))
			}
			for i := range g.parts {
				if res.Parts[i] != g.parts[i] {
					t.Fatalf("parts = %v, want golden %v", res.Parts, g.parts)
				}
			}
			if res.Goodness != g.goodness {
				t.Fatalf("goodness = %v, want golden %v", res.Goodness, g.goodness)
			}
		})
	}
}

// TestDeterminismLargeInstance hashes the full assignment of a 500-node
// random instance so a trajectory change anywhere in coarsening, initial
// partitioning, or refinement is caught without embedding 500 ints here.
func TestDeterminismLargeInstance(t *testing.T) {
	const (
		wantHash     = "500475e06d0aa8c0449e66943ee294abe05c8003407d1826bfad6317b818d2df"
		wantGoodness = 5624.0
	)
	g, err := gen.RandomConnected(500, 1500,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
		rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(g, core.Options{
		K:           4,
		Constraints: metrics.Constraints{Bmax: 4000, Rmax: 8000},
		Seed:        3,
		MaxCycles:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range res.Parts {
		fmt.Fprintf(h, "%d,", p)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantHash {
		t.Fatalf("assignment hash = %s, want golden %s (goodness %v, want %v)",
			got, wantHash, res.Goodness, wantGoodness)
	}
	if res.Goodness != wantGoodness {
		t.Fatalf("goodness = %v, want golden %v", res.Goodness, wantGoodness)
	}
}

// TestDeterminismGoldenTrace extends the determinism contract to the
// engine's structured trace: with timing omitted, pruning off, and a
// pinned parallelism, two identically-seeded runs must serialize to
// byte-identical JSON — every per-level heuristic choice, refinement
// outcome, and retry decision is part of the reproducible trajectory.
func TestDeterminismGoldenTrace(t *testing.T) {
	g, err := gen.RandomConnected(500, 1500,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
		rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{
		K:           4,
		Constraints: metrics.Constraints{Bmax: 4000, Rmax: 8000},
		Seed:        3,
		MaxCycles:   8,
		Parallelism: 2,
		Prune:       engine.PruneOff,
	}
	run := func() []byte {
		// Wall times vary run to run; OmitTiming zeroes them so the JSON
		// carries only the deterministic trajectory.
		tr := &engine.Trace{OmitTiming: true}
		if _, err := core.PartitionTraceCtx(context.Background(), g, opts, tr); err != nil {
			t.Fatal(err)
		}
		b, err := tr.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("trace JSON diverged between identically-seeded runs:\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}

	// The golden bytes must also be a complete trace: decodable, covering
	// all three matching heuristics across the per-level records, with FM
	// work and a retry decision on every counted cycle.
	td, err := engine.DecodeTrace(first)
	if err != nil {
		t.Fatalf("golden trace does not decode: %v", err)
	}
	heuristics := map[string]bool{}
	fmPasses := 0
	for _, cyc := range td.Cycles {
		if !cyc.Discarded && !cyc.Pruned && !cyc.Cancelled && cyc.Retry == nil {
			t.Fatalf("counted cycle %d has no retry decision", cyc.Cycle)
		}
		for _, lvl := range cyc.Levels {
			if len(lvl.Candidates) == 0 {
				t.Fatalf("cycle %d level %d has no matching candidates", cyc.Cycle, lvl.Level)
			}
			for _, c := range lvl.Candidates {
				heuristics[c.Heuristic] = true
			}
		}
		for _, r := range cyc.Refines {
			fmPasses += r.FMPasses
		}
	}
	for _, h := range []string{"random", "heavy-edge", "k-means"} {
		if !heuristics[h] {
			t.Errorf("heuristic %q missing from the per-level candidates; trace saw %v", h, heuristics)
		}
	}
	if fmPasses == 0 {
		t.Error("trace records no FM passes")
	}
	if td.Outcome == nil || !td.Outcome.Feasible {
		t.Fatalf("trace outcome = %+v, want feasible", td.Outcome)
	}

	// The same contract holds with batch refinement forced on: two
	// identically-seeded batch-refined runs must serialize to
	// byte-identical trace JSON, and the trace must actually record batch
	// work (mode, pipeline sentinel, applied rounds).
	batchOpts := opts
	batchOpts.Refine = engine.RefineBatch
	runBatch := func() []byte {
		tr := &engine.Trace{OmitTiming: true}
		if _, err := core.PartitionTraceCtx(context.Background(), g, batchOpts, tr); err != nil {
			t.Fatal(err)
		}
		b, err := tr.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	bFirst, bSecond := runBatch(), runBatch()
	if !bytes.Equal(bFirst, bSecond) {
		t.Fatalf("batch-refined trace JSON diverged between identically-seeded runs:\n--- first ---\n%s\n--- second ---\n%s",
			bFirst, bSecond)
	}
	if bytes.Equal(bFirst, first) {
		t.Fatal("batch-refined trace is byte-identical to the serial trace; the mode recorded nothing")
	}
	btd, err := engine.DecodeTrace(bFirst)
	if err != nil {
		t.Fatalf("batch golden trace does not decode: %v", err)
	}
	batchLevels, rounds := 0, 0
	for _, cyc := range btd.Cycles {
		for _, r := range cyc.Refines {
			if r.Mode != "batch" {
				t.Fatalf("forced batch run traced refine mode %q", r.Mode)
			}
			if r.Pipeline != -1 || r.Batch == nil {
				t.Fatalf("batch refine record incomplete: %+v", r)
			}
			batchLevels++
			rounds += r.Batch.Rounds
		}
	}
	if batchLevels == 0 {
		t.Fatal("batch-refined trace records no refinement levels")
	}
	if rounds == 0 {
		t.Fatal("batch-refined trace records no applied batch rounds")
	}
	if btd.Outcome == nil || !btd.Outcome.Feasible {
		t.Fatalf("batch trace outcome = %+v, want feasible", btd.Outcome)
	}
}

// TestDeterminismStreamSeededGoldenTrace extends the golden-trace
// contract to the streaming initial-partition stage: with the seed
// threshold forced down to 1, every cycle seeds its coarsest graph via
// the streaming partitioner, and two identically-seeded runs must still
// serialize to byte-identical trace JSON — including the per-iteration
// cut/imbalance records of every restream pass.
func TestDeterminismStreamSeededGoldenTrace(t *testing.T) {
	g, err := gen.RandomConnected(500, 1500,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
		rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{
		K:                   4,
		Constraints:         metrics.Constraints{Bmax: 4000, Rmax: 8000},
		Seed:                3,
		MaxCycles:           8,
		Parallelism:         2,
		Prune:               engine.PruneOff,
		StreamSeedThreshold: 1,
	}
	run := func() []byte {
		tr := &engine.Trace{OmitTiming: true}
		if _, err := core.PartitionTraceCtx(context.Background(), g, opts, tr); err != nil {
			t.Fatal(err)
		}
		b, err := tr.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("stream-seeded trace JSON diverged between identically-seeded runs:\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}
	td, err := engine.DecodeTrace(first)
	if err != nil {
		t.Fatalf("stream-seeded golden trace does not decode: %v", err)
	}
	seeded := 0
	for _, cyc := range td.Cycles {
		if cyc.Seeding == nil {
			continue
		}
		if cyc.Seeding.Method != "stream" {
			t.Fatalf("cycle %d seeded via %q, want stream (threshold 1)", cyc.Cycle, cyc.Seeding.Method)
		}
		if cyc.Seeding.Restarts != 0 {
			t.Fatalf("cycle %d stream seed carries greedy restarts: %+v", cyc.Cycle, cyc.Seeding)
		}
		if len(cyc.Seeding.Stream) == 0 {
			t.Fatalf("cycle %d stream seed recorded no pass trajectory", cyc.Cycle)
		}
		for _, it := range cyc.Seeding.Stream {
			if it.Cut < 0 || it.BandwidthExcess < 0 || it.ResourceExcess < 0 {
				t.Fatalf("cycle %d pass %d has negative cut/imbalance: %+v", cyc.Cycle, it.Iter, it)
			}
		}
		seeded++
	}
	if seeded == 0 {
		t.Fatal("no cycle recorded a stream seeding")
	}
	if td.Outcome == nil || !td.Outcome.Feasible {
		t.Fatalf("stream-seeded trace outcome = %+v, want feasible", td.Outcome)
	}
}

// TestDeterminismStandaloneStreamGolden pins the standalone restreaming
// run: the assignment and the per-iteration cut/imbalance trajectory
// must be byte-identical (as serialized JSON) across repeated runs and
// across every worker count from 1 to 16 — the restream sweep is a pure
// function of the previous pass, so parallelism cannot perturb it.
func TestDeterminismStandaloneStreamGolden(t *testing.T) {
	g, err := gen.RandomConnected(500, 1500,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
		rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		res, err := core.PartitionCtx(context.Background(), g, core.Options{
			K:           4,
			Constraints: metrics.Constraints{Bmax: 4000, Rmax: 8000},
			Seed:        3,
			Algo:        core.AlgoStream,
			Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.StreamIters) == 0 {
			t.Fatal("stream run recorded no pass trajectory")
		}
		b, err := json.Marshal(struct {
			Parts []int              `json:"parts"`
			Iters []stream.IterTrace `json:"iters"`
		}{res.Parts, res.StreamIters})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	golden := run(1)
	if again := run(1); !bytes.Equal(golden, again) {
		t.Fatalf("standalone stream trace diverged between identical runs:\n%s\nvs\n%s", golden, again)
	}
	for workers := 2; workers <= 16; workers++ {
		if got := run(workers); !bytes.Equal(golden, got) {
			t.Fatalf("workers=%d diverged from the 1-worker golden:\n%s\nvs\n%s", workers, golden, got)
		}
	}
}

// TestDeterminismRepeatedRuns checks run-to-run stability directly: the
// same options must yield the same assignment every time, even though
// refinement pipelines and matching heuristics execute concurrently.
func TestDeterminismRepeatedRuns(t *testing.T) {
	inst, err := gen.PaperInstance(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{K: inst.K, Constraints: inst.Constraints, Seed: 11, MaxCycles: 12}
	first, err := core.Partition(inst.G, opts)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 4; run++ {
		res, err := core.Partition(inst.G, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first.Parts {
			if res.Parts[i] != first.Parts[i] {
				t.Fatalf("run %d diverged: %v vs %v", run, res.Parts, first.Parts)
			}
		}
		if res.Goodness != first.Goodness {
			t.Fatalf("run %d goodness %v vs %v", run, res.Goodness, first.Goodness)
		}
	}
}
