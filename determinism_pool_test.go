package ppnpart_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"ppnpart/internal/engine"
	"ppnpart/internal/gen"
	"ppnpart/internal/metrics"
	"ppnpart/internal/pool"
	"ppnpart/internal/stream"
)

// The shared worker pool executes every parallel fan-out of a solve —
// cycle batches, the pipeline race, matching heuristics, restream
// sweeps — and its width must never change a result
// bit: the width-1 pool is a plain serial in-order loop, so comparing
// golden trace bytes across widths 1, 4, and 16 pins the whole solve
// trajectory (every RNG draw, tie-break, and reduction) as
// scheduling-independent.
func TestDeterminismAcrossPoolWidths(t *testing.T) {
	g, err := gen.RandomConnected(500, 1500,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
		rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	base := engine.Config{
		K:           4,
		Constraints: metrics.Constraints{Bmax: 4000, Rmax: 8000},
		Seed:        3,
		MaxCycles:   8,
		Parallelism: 2,
		Prune:       engine.PruneOff,
	}
	for _, mode := range []struct {
		name   string
		refine engine.RefineMode
	}{
		{"serial-pipelines", engine.RefineSerial},
		{"batch", engine.RefineBatch},
	} {
		t.Run(mode.name, func(t *testing.T) {
			run := func(width int) []byte {
				p := pool.New(width)
				defer p.Close()
				cfg := base
				cfg.Refine = mode.refine
				cfg.Pool = p
				tr := &engine.Trace{OmitTiming: true}
				out := engine.New(cfg.WithDefaults()).Solve(context.Background(), g, tr)
				if out == nil || out.Parts == nil {
					t.Fatalf("width %d produced no outcome", width)
				}
				b, err := tr.JSON()
				if err != nil {
					t.Fatal(err)
				}
				return append(b, []byte(mustJSON(t, out.Parts))...)
			}
			golden := run(1)
			for _, width := range []int{4, 16} {
				if got := run(width); !bytes.Equal(golden, got) {
					t.Fatalf("pool width %d diverged from the width-1 golden trace", width)
				}
			}
		})
	}
}

// Same contract for the standalone streaming partitioner: the restream
// sweep chunks by Options.Workers but executes on the pool, so pool
// width is yet another axis that must not change the trajectory.
func TestDeterminismStreamAcrossPoolWidths(t *testing.T) {
	g, err := gen.RandomConnected(500, 1500,
		gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
		rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(width int) []byte {
		p := pool.New(width)
		defer p.Close()
		res, err := stream.PartitionCtx(context.Background(), g, stream.Options{
			K:           4,
			Constraints: metrics.Constraints{Bmax: 4000, Rmax: 8000},
			Workers:     16,
			Pool:        p,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(struct {
			Parts []int              `json:"parts"`
			Iters []stream.IterTrace `json:"iters"`
		}{res.Parts, res.Iters})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	golden := run(1)
	for _, width := range []int{4, 16} {
		if got := run(width); !bytes.Equal(golden, got) {
			t.Fatalf("pool width %d diverged from the width-1 stream golden", width)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
