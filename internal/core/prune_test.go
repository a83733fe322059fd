package core

import (
	"errors"
	"math/rand"
	"testing"

	"ppnpart/internal/engine"
	"ppnpart/internal/metrics"
)

// The PruneMode mechanics (publish ordering, shouldAbandon per mode) are
// tested next to their implementation in internal/engine; here we cover
// the core-level surface: validation and the determinism contract of the
// default mode through the public Partition API.

func TestValidateRejectsUnknownPruneMode(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(1)), 20)
	// 2 was the retired aggressive mode; it is now as unknown as 42.
	for _, mode := range []engine.PruneMode{2, 42} {
		_, err := Partition(g, Options{K: 2, Prune: mode})
		if !errors.Is(err, ErrUnknownPruneMode) {
			t.Fatalf("mode %d: err = %v, want ErrUnknownPruneMode", mode, err)
		}
		if !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("mode %d: err = %v does not wrap ErrInvalidOptions", mode, err)
		}
	}
}

// Deterministic pruning must be invisible in the result: any partition it
// abandons would have been discarded by the reduction anyway.
func TestPruneDeterministicMatchesPruneOff(t *testing.T) {
	g := randomConnected(rand.New(rand.NewSource(5)), 300)
	for _, minimize := range []bool{false, true} {
		base := Options{
			K: 4, Constraints: metrics.Constraints{Rmax: 5000}, Seed: 9,
			MaxCycles: 8, MinimizeAfterFeasible: minimize,
		}
		off := base
		off.Prune = engine.PruneOff
		a, err := Partition(g, base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Partition(g, off)
		if err != nil {
			t.Fatal(err)
		}
		if a.Goodness != b.Goodness || a.Feasible != b.Feasible || a.Cycles != b.Cycles {
			t.Fatalf("minimize=%v: deterministic prune diverges from off: goodness %g/%g feasible %v/%v cycles %d/%d",
				minimize, a.Goodness, b.Goodness, a.Feasible, b.Feasible, a.Cycles, b.Cycles)
		}
		for i := range a.Parts {
			if a.Parts[i] != b.Parts[i] {
				t.Fatalf("minimize=%v: parts diverge at node %d: %d vs %d",
					minimize, i, a.Parts[i], b.Parts[i])
			}
		}
	}
}
