package engine

import (
	"context"
	"reflect"
	"testing"

	"ppnpart/internal/chaos"
	"ppnpart/internal/metrics"
)

// Tests for the batch refinement mode selection, its trace records, and
// the chaos failpoint at the batch-apply boundary.

func TestParseRefineMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want RefineMode
		ok   bool
	}{
		{"", RefineAuto, true},
		{"auto", RefineAuto, true},
		{"serial", RefineSerial, true},
		{"batch", RefineBatch, true},
		{"Batch", 0, false},
		{"parallel", 0, false},
	} {
		got, err := ParseRefineMode(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseRefineMode(%q) = (%v, %v), want (%v, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, m := range []RefineMode{RefineAuto, RefineSerial, RefineBatch} {
		if !m.Valid() {
			t.Errorf("%v should be valid", m)
		}
		back, err := ParseRefineMode(m.String())
		if err != nil || back != m {
			t.Errorf("round-trip %v -> %q -> (%v, %v)", m, m.String(), back, err)
		}
	}
	if RefineMode(99).Valid() {
		t.Error("out-of-range mode reported valid")
	}
}

func TestUseBatchThreshold(t *testing.T) {
	cfg := Config{K: 4, BatchThreshold: 1000}.WithDefaults()
	if useBatch(&cfg, 999) || !useBatch(&cfg, 1000) {
		t.Fatal("auto mode must switch exactly at the threshold")
	}
	cfg.Refine = RefineSerial
	if useBatch(&cfg, 1_000_000) {
		t.Fatal("RefineSerial must never use batch")
	}
	cfg.Refine = RefineBatch
	if !useBatch(&cfg, 2) {
		t.Fatal("RefineBatch must always use batch")
	}
}

// TestBatchModeSolvesAndTraces forces batch refinement on an instance far
// below the auto threshold and checks the solve stays valid and the trace
// records the mode, the pipeline sentinel, and the batch round counts.
func TestBatchModeSolvesAndTraces(t *testing.T) {
	g := testGraph(t, 200, 600, 21)
	rmax := g.TotalNodeWeight()*115/(100*4) + g.MaxNodeWeight()
	cons := metrics.Constraints{Rmax: rmax, Bmax: 2 * g.TotalEdgeWeight() / 4}
	s := New(Config{K: 4, Constraints: cons, Seed: 3, MaxCycles: 6, Refine: RefineBatch})
	tr := &Trace{}
	out := s.Solve(context.Background(), g, tr)
	if err := metrics.Validate(g, out.Parts, 4); err != nil {
		t.Fatal(err)
	}
	td := tr.Data()
	if len(td.Cycles) == 0 {
		t.Fatal("no cycles traced")
	}
	refines := 0
	for _, cyc := range td.Cycles {
		for _, rt := range cyc.Refines {
			refines++
			if rt.Mode != "batch" {
				t.Fatalf("refine level traced mode %q, want \"batch\"", rt.Mode)
			}
			if rt.Pipeline != -1 {
				t.Fatalf("batch level traced pipeline %d, want -1", rt.Pipeline)
			}
			if rt.Batch == nil {
				t.Fatal("batch level traced no batch record")
			}
			if len(rt.Batch.RoundSizes) != rt.Batch.Rounds {
				t.Fatalf("batch record inconsistent: %+v", rt.Batch)
			}
		}
	}
	if refines == 0 {
		t.Fatal("no refinement levels traced")
	}
	sum := tr.Summary()
	if sum.BatchDegraded != 0 {
		t.Fatalf("clean run reported %d degraded levels", sum.BatchDegraded)
	}

	// The same instance under serial mode must produce an equally valid
	// partition with no batch records in the trace.
	s2 := New(Config{K: 4, Constraints: cons, Seed: 3, MaxCycles: 6, Refine: RefineSerial})
	tr2 := &Trace{}
	out2 := s2.Solve(context.Background(), g, tr2)
	if err := metrics.Validate(g, out2.Parts, 4); err != nil {
		t.Fatal(err)
	}
	for _, cyc := range tr2.Data().Cycles {
		for _, rt := range cyc.Refines {
			if rt.Mode != "" || rt.Batch != nil {
				t.Fatalf("serial run traced batch fields: %+v", rt)
			}
		}
	}
}

// TestBatchModeDeterministic runs the batch-mode solve twice with the same
// seed and demands identical partitions and identical traces — the
// engine-level determinism contract the golden-trace test builds on.
// Pruning is off, as in the golden-trace tests: whether a discarded
// overshoot cycle notices the incumbent before or after its coarsening is
// timing, so its pruned marker is not part of the reproducible trace.
func TestBatchModeDeterministic(t *testing.T) {
	g := testGraph(t, 300, 900, 33)
	cons := metrics.Constraints{
		Rmax: g.TotalNodeWeight()*115/(100*4) + g.MaxNodeWeight(),
		Bmax: 2 * g.TotalEdgeWeight() / 4,
	}
	run := func() ([]int, []byte) {
		s := New(Config{K: 4, Constraints: cons, Seed: 9, MaxCycles: 4, Refine: RefineBatch, Prune: PruneOff})
		tr := &Trace{OmitTiming: true}
		out := s.Solve(context.Background(), g, tr)
		b, err := tr.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out.Parts, b
	}
	p1, t1 := run()
	p2, t2 := run()
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("identically-seeded batch solves produced different partitions")
	}
	if string(t1) != string(t2) {
		t.Fatal("identically-seeded batch solves produced different traces")
	}
}

// TestChaosBatchApplyDegradesToSerial arms a panic at the batch-apply
// failpoint and proves the isolation contract: the panic never escapes the
// solve, every level degrades to the serial pipelines, the result is still
// a valid partition, and the degradation is visible in the trace summary.
func TestChaosBatchApplyDegradesToSerial(t *testing.T) {
	g := testGraph(t, 200, 600, 21)
	cons := metrics.Constraints{
		Rmax: g.TotalNodeWeight()*115/(100*4) + g.MaxNodeWeight(),
		Bmax: 2 * g.TotalEdgeWeight() / 4,
	}
	cfg := Config{K: 4, Constraints: cons, Seed: 3, MaxCycles: 6, Refine: RefineBatch}

	// Reference: the same solve with batch refinement simply switched off.
	serial := cfg
	serial.Refine = RefineSerial
	refOut := New(serial).Solve(context.Background(), g, nil)

	if err := chaos.ArmSpec(batchApplyPoint + ":panicx*"); err != nil {
		t.Fatal(err)
	}
	defer chaos.Disarm()

	tr := &Trace{}
	out := New(cfg).Solve(context.Background(), g, tr)
	if chaos.Fired(batchApplyPoint) == 0 {
		t.Fatal("failpoint never fired; the test exercised nothing")
	}
	if err := metrics.Validate(g, out.Parts, 4); err != nil {
		t.Fatalf("degraded solve produced invalid partition: %v", err)
	}
	sum := tr.Summary()
	if sum.BatchDegraded == 0 {
		t.Fatal("trace summary records no degraded levels")
	}
	if sum.BatchRounds != 0 || sum.BatchMoves != 0 {
		t.Fatalf("degraded levels must contribute no batch rounds/moves, got %d/%d",
			sum.BatchRounds, sum.BatchMoves)
	}
	allDegraded := true
	for _, cyc := range tr.Data().Cycles {
		for _, rt := range cyc.Refines {
			switch rt.Mode {
			case "batch-degraded":
				if rt.Batch == nil || !rt.Batch.Degraded {
					t.Fatalf("degraded level missing Degraded marker: %+v", rt.Batch)
				}
			case "batch":
				// Legitimate only when the pass never reached the apply
				// boundary (no candidate batch, so the failpoint could not
				// fire and no moves landed).
				allDegraded = false
				if rt.Batch == nil || rt.Batch.Rounds != 0 || rt.Batch.Moves != 0 {
					t.Fatalf("level survived an every-hit panic schedule with applied rounds: %+v", rt.Batch)
				}
			default:
				t.Fatalf("level traced mode %q under forced batch", rt.Mode)
			}
		}
	}
	// When every level degraded, the fallback ran the full pipeline race on
	// the untouched assignment — i.e. exactly the serial solve.
	if allDegraded &&
		(!reflect.DeepEqual(out.Parts, refOut.Parts) || out.Feasible != refOut.Feasible) {
		t.Fatal("degraded batch solve diverged from the pure serial solve")
	}
}
